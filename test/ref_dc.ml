(* The DC operating point as the engines computed it before it moved
   onto the compiled circuit: gate order from [Check.topological_gates]
   (a list-and-[Queue] Kahn walk over the netlist records), each gate
   evaluated by [Gate_kind.eval_bool] on a fresh input array, and
   Gauss-Seidel sweeps in gate-id order when the circuit has feedback.
   [Halotis_engine.Dc.levels] must agree with it level for level. *)

module Netlist = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

let seed_levels c ~input_level =
  let levels = Array.make (Netlist.signal_count c) false in
  Array.iter
    (fun (s : Netlist.signal) ->
      if s.Netlist.is_primary_input then
        levels.(s.Netlist.signal_id) <- input_level s.Netlist.signal_id
      else
        match s.Netlist.constant with
        | Some Value.L1 -> levels.(s.Netlist.signal_id) <- true
        | Some (Value.L0 | Value.X | Value.Z) | None -> ())
    (Netlist.signals c);
  levels

let eval_gate c levels gid =
  let g = Netlist.gate c gid in
  Gate_kind.eval_bool g.Netlist.kind (Array.map (fun sid -> levels.(sid)) g.Netlist.fanin)

let levels c ~input_level =
  let levels = seed_levels c ~input_level in
  match Check.topological_gates c with
  | Some order ->
      List.iter
        (fun gid -> levels.((Netlist.gate c gid).Netlist.output) <- eval_gate c levels gid)
        order;
      levels
  | None ->
      let ngates = Netlist.gate_count c in
      let rec sweep remaining =
        if remaining = 0 then
          invalid_arg "Dc.levels: feedback loop does not settle (oscillator?)"
        else begin
          let changed = ref false in
          for gid = 0 to ngates - 1 do
            let out = (Netlist.gate c gid).Netlist.output in
            let v = eval_gate c levels gid in
            if levels.(out) <> v then begin
              levels.(out) <- v;
              changed := true
            end
          done;
          if !changed then sweep (remaining - 1)
        end
      in
      sweep (ngates + 2);
      levels
