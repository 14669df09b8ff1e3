type t =
  | Buf
  | Inv
  | And of int
  | Nand of int
  | Or of int
  | Nor of int
  | Xor of int
  | Xnor of int
  | Aoi21
  | Oai21
  | Mux2

let arity = function
  | Buf | Inv -> 1
  | And n | Nand n | Or n | Nor n | Xor n | Xnor n -> n
  | Aoi21 | Oai21 | Mux2 -> 3

let check_arity kind len =
  if len <> arity kind then
    invalid_arg
      (Printf.sprintf "Gate_kind.eval: expected %d inputs, got %d" (arity kind) len)

let fold_values f init inputs =
  Array.fold_left f init inputs

let eval kind inputs =
  check_arity kind (Array.length inputs);
  match kind with
  | Buf -> ( match inputs.(0) with Value.L0 -> Value.L0 | L1 -> L1 | X | Z -> X)
  | Inv -> Value.lnot inputs.(0)
  | And _ -> fold_values Value.land_ Value.L1 inputs
  | Nand _ -> Value.lnot (fold_values Value.land_ Value.L1 inputs)
  | Or _ -> fold_values Value.lor_ Value.L0 inputs
  | Nor _ -> Value.lnot (fold_values Value.lor_ Value.L0 inputs)
  | Xor _ -> fold_values Value.lxor_ Value.L0 inputs
  | Xnor _ -> Value.lnot (fold_values Value.lxor_ Value.L0 inputs)
  | Aoi21 -> Value.lnot (Value.lor_ (Value.land_ inputs.(0) inputs.(1)) inputs.(2))
  | Oai21 -> Value.lnot (Value.land_ (Value.lor_ inputs.(0) inputs.(1)) inputs.(2))
  | Mux2 -> (
      match Value.to_bool inputs.(2) with
      | Some false -> inputs.(0)
      | Some true -> inputs.(1)
      | None -> if Value.equal inputs.(0) inputs.(1) then inputs.(0) else Value.X)

let eval_bool kind inputs =
  check_arity kind (Array.length inputs);
  let conj () = Array.for_all Fun.id inputs in
  let disj () = Array.exists Fun.id inputs in
  let parity () = Array.fold_left (fun acc b -> acc <> b) false inputs in
  match kind with
  | Buf -> inputs.(0)
  | Inv -> not inputs.(0)
  | And _ -> conj ()
  | Nand _ -> not (conj ())
  | Or _ -> disj ()
  | Nor _ -> not (disj ())
  | Xor _ -> parity ()
  | Xnor _ -> not (parity ())
  | Aoi21 -> not ((inputs.(0) && inputs.(1)) || inputs.(2))
  | Oai21 -> not ((inputs.(0) || inputs.(1)) && inputs.(2))
  | Mux2 -> if inputs.(2) then inputs.(1) else inputs.(0)

let name = function
  | Buf -> "buf"
  | Inv -> "inv"
  | And n -> Printf.sprintf "and%d" n
  | Nand n -> Printf.sprintf "nand%d" n
  | Or n -> Printf.sprintf "or%d" n
  | Nor n -> Printf.sprintf "nor%d" n
  | Xor n -> Printf.sprintf "xor%d" n
  | Xnor n -> Printf.sprintf "xnor%d" n
  | Aoi21 -> "aoi21"
  | Oai21 -> "oai21"
  | Mux2 -> "mux2"

let families =
  [|
    ("and", fun n -> And n);
    ("nand", fun n -> Nand n);
    ("nor", fun n -> Nor n);
    ("or", fun n -> Or n);
    ("xnor", fun n -> Xnor n);
    ("xor", fun n -> Xor n);
  |]

(* Each family's kinds up to 16 inputs, as options made once: a reader
   resolving a gate line's kind allocates nothing. *)
let shared = Array.map (fun (_, make) -> Array.init 17 (fun n -> Some (make n))) families

(* [p] is at [s.[pos]], for a caller that knows it fits *)
let rec is_at s pos p j =
  j = String.length p || (String.unsafe_get s (pos + j) = p.[j] && is_at s pos p (j + 1))

let is s pos len p = String.length p = len && is_at s pos p 0

(* the value of the decimal digits [s.[i] .. s.[stop - 1]], or -1 *)
let rec digits s i stop acc =
  if i = stop then acc
  else
    match s.[i] with
    | '0' .. '9' as c -> digits s (i + 1) stop ((10 * acc) + Char.code c - 48)
    | _ -> -1

(* FAMILY<arity>: at most one family name is a proper prefix *)
let rec family s pos len f =
  if f = Array.length families then None
  else
    let p, make = families.(f) in
    let plen = String.length p in
    if len > plen && is_at s pos p 0 then
      (* up to 18 digits cannot overflow; anything else goes through
         [int_of_string_opt] (signs, [0x], [_]) *)
      let n = if len - plen <= 18 then digits s (pos + plen) (pos + len) 0 else -1 in
      let n =
        if n >= 0 then n
        else Option.value (int_of_string_opt (String.sub s (pos + plen) (len - plen))) ~default:0
      in
      if n >= 1 && n <= 16 then shared.(f).(n) else if n >= 1 then Some (make n) else None
    else family s pos len (f + 1)

let of_sub s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Gate_kind.of_sub";
  if len = 0 then None
  else
    match String.unsafe_get s pos with
    | 'b' when is s pos len "buf" -> Some Buf
    | 'i' when is s pos len "inv" -> Some Inv
    | 'n' when is s pos len "not" -> Some Inv
    | 'a' when is s pos len "aoi21" -> Some Aoi21
    | 'o' when is s pos len "oai21" -> Some Oai21
    | 'm' when is s pos len "mux2" -> Some Mux2
    | _ -> family s pos len 0

let of_name s = of_sub s 0 (String.length s)

let all_basic =
  [ Buf; Inv; And 2; Nand 2; Nand 3; Or 2; Nor 2; Xor 2; Xnor 2; Aoi21; Oai21; Mux2 ]
