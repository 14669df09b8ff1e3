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
  [
    ("and", fun n -> And n);
    ("nand", fun n -> Nand n);
    ("nor", fun n -> Nor n);
    ("or", fun n -> Or n);
    ("xnor", fun n -> Xnor n);
    ("xor", fun n -> Xor n);
  ]

let of_name s =
  match s with
  | "buf" -> Some Buf
  | "inv" | "not" -> Some Inv
  | "aoi21" -> Some Aoi21
  | "oai21" -> Some Oai21
  | "mux2" -> Some Mux2
  | _ -> (
      (* FAMILY<arity>: at most one family name is a prefix of [s] *)
      let prefixes (p, _) = String.length s > String.length p && String.starts_with ~prefix:p s in
      match List.find_opt prefixes families with
      | None -> None
      | Some (p, make) -> (
          let plen = String.length p in
          match int_of_string_opt (String.sub s plen (String.length s - plen)) with
          | Some n when n >= 1 -> Some (make n)
          | Some _ | None -> None))

let all_basic =
  [ Buf; Inv; And 2; Nand 2; Nand 3; Or 2; Nor 2; Xor 2; Xnor 2; Aoi21; Oai21; Mux2 ]
