module Netlist = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check
module Tech = Halotis_tech.Tech
module Gate_kind = Halotis_logic.Gate_kind
module Delay_model = Halotis_delay.Delay_model

type arrival = { rise_at : float; fall_at : float; slope : float }

type best_cause = { from_pin : int; from_rising : bool }

type t = {
  circuit : Netlist.t;
  arrivals : arrival array; (* per signal *)
  causes : (best_cause option * best_cause option) array;
      (* per gate: argmax cause of (rise, fall) at its output *)
}

let can_cause kind ~in_rising ~out_rising =
  match kind with
  | Gate_kind.Inv | Gate_kind.Nand _ | Gate_kind.Nor _ | Gate_kind.Aoi21 | Gate_kind.Oai21
    ->
      in_rising <> out_rising
  | Gate_kind.Buf | Gate_kind.And _ | Gate_kind.Or _ -> in_rising = out_rising
  | Gate_kind.Xor _ | Gate_kind.Xnor _ | Gate_kind.Mux2 -> true

(* Shared no-backtrace rejection of cyclic circuits for every static
   analysis in this library: a structured diagnostic naming a witness
   cycle beats [Invalid_argument] with no context. *)
let fail_cyclic c ~what =
  let witness =
    match Check.find_cycle c with
    | Some cycle ->
        String.concat " -> "
          (List.map (Netlist.gate_name c) (cycle @ [ List.hd cycle ]))
    | None -> "<no witness>"
  in
  Halotis_util.Diag.fail ~code:"cyclic-circuit"
    ~hint:"static analyses need an acyclic gate graph; break the feedback loop or simulate with the oscillation watchdog instead"
    (Printf.sprintf "%s: circuit %s has a combinational cycle: %s" what
       (Netlist.name c) witness)

let analyze ?(input_slope = 100.) tech c =
  let order =
    match Check.topological_gates c with
    | Some order -> order
    | None -> fail_cyclic c ~what:"Sta.analyze"
  in
  let nsignals = Netlist.signal_count c in
  let never = neg_infinity in
  let arrivals =
    Array.init nsignals (fun sid ->
        let s = Netlist.signal c sid in
        if s.Netlist.is_primary_input then
          {
            rise_at = input_slope;
            fall_at = input_slope;
            slope = input_slope;
          }
        else { rise_at = never; fall_at = never; slope = input_slope })
  in
  let loads = Halotis_delay.Loads.of_netlist tech c in
  let causes = Array.make (Netlist.gate_count c) (None, None) in
  List.iter
    (fun gid ->
      let g = Netlist.gate c gid in
      let gt = Tech.gate_tech tech g.Netlist.kind in
      let cl = loads.(g.Netlist.output) in
      let eval ~out_rising =
        let p = Tech.edge gt ~rising:out_rising in
        let tau_out = Tech.output_slope p ~cl in
        let best = ref never and best_cause = ref None in
        Array.iteri
          (fun pin fid ->
            let fa = arrivals.(fid) in
            List.iter
              (fun in_rising ->
                if can_cause g.Netlist.kind ~in_rising ~out_rising then begin
                  let at = if in_rising then fa.rise_at else fa.fall_at in
                  if at > never then begin
                    let tp =
                      Tech.base_delay p
                        ~pin_factor:(gt.Tech.pin_factor pin)
                        ~cl ~tau_in:fa.slope
                    in
                    let total = at +. tp +. tau_out in
                    if total > !best then begin
                      best := total;
                      best_cause := Some { from_pin = pin; from_rising = in_rising }
                    end
                  end
                end)
              [ true; false ])
          g.Netlist.fanin;
        (!best, !best_cause, tau_out)
      in
      let rise_at, rise_cause, tau_r = eval ~out_rising:true in
      let fall_at, fall_cause, tau_f = eval ~out_rising:false in
      arrivals.(g.Netlist.output) <-
        { rise_at; fall_at; slope = Float.max tau_r tau_f };
      causes.(gid) <- (rise_cause, fall_cause))
    order;
  { circuit = c; arrivals; causes }

let arrival t sid = t.arrivals.(sid)

let output_arrivals t =
  List.filter_map
    (fun sid ->
      let a = t.arrivals.(sid) in
      let v = Float.max a.rise_at a.fall_at in
      if v > neg_infinity then Some (sid, v) else None)
    (Netlist.primary_outputs t.circuit)

let worst t = List.fold_left (fun acc (_, v) -> Float.max acc v) 0. (output_arrivals t)

let worst_output t =
  match
    List.sort (fun (_, a) (_, b) -> Float.compare b a) (output_arrivals t)
  with
  | (sid, _) :: _ -> Some sid
  | [] -> None

type path_step = {
  step_gate : Netlist.gate_id;
  step_pin : int;
  step_signal : Netlist.signal_id;
  step_rising : bool;
  step_at : float;
}

let critical_path t =
  match worst_output t with
  | None -> []
  | Some sid ->
      let rec walk sid rising acc =
        match (Netlist.signal t.circuit sid).Netlist.driver with
        | None -> acc
        | Some gid ->
            let rise_cause, fall_cause = t.causes.(gid) in
            let cause = if rising then rise_cause else fall_cause in
            (match cause with
            | None -> acc
            | Some { from_pin; from_rising } ->
                let a = t.arrivals.(sid) in
                let step =
                  {
                    step_gate = gid;
                    step_pin = from_pin;
                    step_signal = sid;
                    step_rising = rising;
                    step_at = (if rising then a.rise_at else a.fall_at);
                  }
                in
                walk (Netlist.gate t.circuit gid).Netlist.fanin.(from_pin) from_rising
                  (step :: acc))
      in
      let a = t.arrivals.(sid) in
      walk sid (a.rise_at >= a.fall_at) []

let pp_path c fmt steps =
  List.iter
    (fun s ->
      Format.fprintf fmt "  %-14s pin %d -> %-12s %s at %a@."
        (Netlist.gate_name c s.step_gate)
        s.step_pin
        (Netlist.signal_name c s.step_signal)
        (if s.step_rising then "rise" else "fall")
        Halotis_util.Units.pp_time s.step_at)
    steps

let slack t ~period =
  List.map (fun (sid, arrival) -> (sid, period -. arrival)) (output_arrivals t)

let min_period = worst
