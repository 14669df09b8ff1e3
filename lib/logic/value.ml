type t = L0 | L1 | X | Z

let equal a b =
  match (a, b) with
  | L0, L0 | L1, L1 | X, X | Z, Z -> true
  | (L0 | L1 | X | Z), _ -> false

let to_char = function L0 -> '0' | L1 -> '1' | X -> 'x' | Z -> 'z'

let to_bool = function L0 -> Some false | L1 -> Some true | X | Z -> None
let of_bool b = if b then L1 else L0
let lnot = function L0 -> L1 | L1 -> L0 | X | Z -> X

let land_ a b =
  match (a, b) with
  | L0, _ | _, L0 -> L0
  | L1, L1 -> L1
  | (L1 | X | Z), (X | Z) | (X | Z), L1 -> X

let lor_ a b =
  match (a, b) with
  | L1, _ | _, L1 -> L1
  | L0, L0 -> L0
  | (L0 | X | Z), (X | Z) | (X | Z), L0 -> X

let lxor_ a b =
  match (to_bool a, to_bool b) with
  | Some x, Some y -> of_bool (x <> y)
  | (Some _ | None), _ -> X

