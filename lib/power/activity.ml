module Netlist = Halotis_netlist.Netlist
module Digital = Halotis_wave.Digital
module Tech = Halotis_tech.Tech
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic

type report = {
  total_transitions : int;
  per_signal : (string * int) array;
  full_pulses : int;
  engine_label : string;
}

let of_iddm ?vt (r : Iddm.result) =
  let vt =
    match vt with Some v -> v | None -> Tech.vdd r.Iddm.run_config.Iddm.tech /. 2.
  in
  let c = r.Iddm.circuit in
  let pulses = ref 0 in
  let per_signal =
    Array.map
      (fun (s : Netlist.signal) ->
        let w = r.Iddm.waveforms.(s.Netlist.signal_id) in
        pulses := !pulses + List.length (Digital.pulses w ~vt);
        (s.Netlist.signal_name, Digital.edge_count w ~vt))
      (Netlist.signals c)
  in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 per_signal in
  let label =
    "IDDM/" ^ Halotis_delay.Delay_model.kind_to_string r.Iddm.run_config.Iddm.delay_kind
  in
  { total_transitions = total; per_signal; full_pulses = !pulses; engine_label = label }

let of_classic (r : Classic.result) =
  let c = r.Classic.circuit in
  let pulses = ref 0 in
  let per_signal =
    Array.map
      (fun (s : Netlist.signal) ->
        let edges = (Lazy.force r.Classic.edges).(s.Netlist.signal_id) in
        let rec count_pulses = function
          | _ :: _ :: rest -> 1 + count_pulses rest
          | [ _ ] | [] -> 0
        in
        pulses := !pulses + count_pulses edges;
        (s.Netlist.signal_name, List.length edges))
      (Netlist.signals c)
  in
  let total = Array.fold_left (fun acc (_, n) -> acc + n) 0 per_signal in
  { total_transitions = total; per_signal; full_pulses = !pulses; engine_label = "classic" }

let overestimation_pct ~reference ~candidate =
  if reference.total_transitions = 0 then 0.
  else
    100.
    *. float_of_int (candidate.total_transitions - reference.total_transitions)
    /. float_of_int reference.total_transitions

let busiest report ~n =
  let sorted =
    List.sort
      (fun (_, a) (_, b) -> Int.compare b a)
      (Array.to_list report.per_signal)
  in
  List.filteri (fun i _ -> i < n) sorted
