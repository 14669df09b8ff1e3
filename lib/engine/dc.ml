module Netlist = Halotis_netlist.Netlist
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

(* [Gate_kind.eval_bool] of gate [g], its pins read through the
   compiled fanin slots: no per-gate input array. *)
let rec all_set lv fanin base n i =
  i >= n || (lv.(fanin.(base + i)) && all_set lv fanin base n (i + 1))

let rec any_set lv fanin base n i =
  i < n && (lv.(fanin.(base + i)) || any_set lv fanin base n (i + 1))

let rec parity_set lv fanin base n i acc =
  if i >= n then acc else parity_set lv fanin base n (i + 1) (acc <> lv.(fanin.(base + i)))

let pin lv fanin base i = lv.(fanin.(base + i))

let eval_gate (cp : Compiled.t) lv g =
  let fanin = cp.Compiled.pin_fanin and base = cp.Compiled.g_base.(g) in
  let n = cp.Compiled.g_base.(g + 1) - base in
  match cp.Compiled.g_kind.(g) with
  | Gate_kind.Buf -> pin lv fanin base 0
  | Gate_kind.Inv -> not (pin lv fanin base 0)
  | Gate_kind.And _ -> all_set lv fanin base n 0
  | Gate_kind.Nand _ -> not (all_set lv fanin base n 0)
  | Gate_kind.Or _ -> any_set lv fanin base n 0
  | Gate_kind.Nor _ -> not (any_set lv fanin base n 0)
  | Gate_kind.Xor _ -> parity_set lv fanin base n 0 false
  | Gate_kind.Xnor _ -> not (parity_set lv fanin base n 0 false)
  | Gate_kind.Aoi21 ->
      not ((pin lv fanin base 0 && pin lv fanin base 1) || pin lv fanin base 2)
  | Gate_kind.Oai21 ->
      not ((pin lv fanin base 0 || pin lv fanin base 1) && pin lv fanin base 2)
  | Gate_kind.Mux2 -> if pin lv fanin base 2 then pin lv fanin base 1 else pin lv fanin base 0

let levels (cp : Compiled.t) ~input_level =
  let levels = seed_levels cp.Compiled.circuit ~input_level in
  let g_out = cp.Compiled.g_out in
  match cp.Compiled.topo_order with
  | Some order ->
      for k = 0 to Array.length order - 1 do
        let g = order.(k) in
        levels.(g_out.(g)) <- eval_gate cp levels g
      done;
      levels
  | None ->
      (* Feedback: Gauss-Seidel sweeps in gate-id order until a sweep
         changes nothing.  Any fixed point is reached within #gates
         sweeps; beyond that the loop oscillates. *)
      let ngates = cp.Compiled.ngates in
      let rec sweep remaining =
        if remaining = 0 then
          invalid_arg "Dc.levels: feedback loop does not settle (oscillator?)"
        else begin
          let changed = ref false in
          for g = 0 to ngates - 1 do
            let v = eval_gate cp levels g in
            if levels.(g_out.(g)) <> v then begin
              levels.(g_out.(g)) <- v;
              changed := true
            end
          done;
          if !changed then sweep (remaining - 1)
        end
      in
      sweep (ngates + 2);
      levels
