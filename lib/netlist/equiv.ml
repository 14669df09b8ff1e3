module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

type verdict =
  | Equivalent
  | Counterexample of { inputs : bool list; outputs_a : bool list; outputs_b : bool list }
  | Incompatible of string

let outputs_for c ~inputs =
  let pis = Netlist.primary_inputs c in
  if List.length inputs <> List.length pis then
    invalid_arg "Equiv.outputs_for: input vector length mismatch";
  let order =
    match Check.topological_gates c with
    | Some order -> order
    | None -> invalid_arg "Equiv.outputs_for: cyclic circuit"
  in
  let levels = Array.make (Netlist.signal_count c) false in
  Array.iter
    (fun (s : Netlist.signal) ->
      match s.Netlist.constant with
      | Some Value.L1 -> levels.(s.Netlist.signal_id) <- true
      | Some (Value.L0 | Value.X | Value.Z) | None -> ())
    (Netlist.signals c);
  List.iter2 (fun sid v -> levels.(sid) <- v) pis inputs;
  List.iter
    (fun gid ->
      let g = Netlist.gate c gid in
      levels.(g.Netlist.output) <-
        Gate_kind.eval_bool g.Netlist.kind (Array.map (fun sid -> levels.(sid)) g.Netlist.fanin))
    order;
  List.map (fun sid -> levels.(sid)) (Netlist.primary_outputs c)

let max_inputs = 16

let check a b =
  let n = List.length (Netlist.primary_inputs a) in
  if n <> List.length (Netlist.primary_inputs b) then
    Incompatible "different primary-input counts"
  else if
    List.length (Netlist.primary_outputs a) <> List.length (Netlist.primary_outputs b)
  then Incompatible "different primary-output counts"
  else if n > max_inputs then
    Incompatible (Printf.sprintf "too many inputs for exhaustive check (%d > %d)" n max_inputs)
  else if Check.topological_gates a = None || Check.topological_gates b = None then
    Incompatible "cyclic circuit"
  else begin
    let rec scan v =
      if v >= 1 lsl n then Equivalent
      else begin
        let inputs = List.init n (fun i -> (v lsr i) land 1 = 1) in
        let outputs_a = outputs_for a ~inputs and outputs_b = outputs_for b ~inputs in
        if outputs_a <> outputs_b then Counterexample { inputs; outputs_a; outputs_b }
        else scan (v + 1)
      end
    in
    scan 0
  end

let pp_verdict fmt = function
  | Equivalent -> Format.pp_print_string fmt "equivalent"
  | Incompatible reason -> Format.fprintf fmt "incompatible: %s" reason
  | Counterexample { inputs; outputs_a; outputs_b } ->
      let bits l = String.concat "" (List.map (fun b -> if b then "1" else "0") l) in
      Format.fprintf fmt "counterexample: inputs=%s a=%s b=%s" (bits inputs) (bits outputs_a)
        (bits outputs_b)
