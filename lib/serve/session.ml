module Json = Halotis_util.Json
module Netlist = Halotis_netlist.Netlist
module Transition = Halotis_wave.Transition
module Waveform = Halotis_wave.Waveform
module Digital = Halotis_wave.Digital
module Sim = Halotis_engine.Sim
module Compiled = Halotis_engine.Compiled
module Stats = Halotis_engine.Stats
module Stop = Halotis_guard.Stop
module Diag = Halotis_guard.Diag

type t = {
  se_id : int;
  se_compiled : Compiled.t;
  se_sim : Sim.Session.t;
  se_slope : float;
  mutable se_frontier : float;
  se_levels : bool array; (* latest commanded level, primary inputs only *)
}

let drive_final_level (d : Halotis_engine.Drive.t) =
  List.fold_left
    (fun _ (tr : Transition.t) -> tr.Transition.polarity = Transition.Rising)
    d.Halotis_engine.Drive.initial d.Halotis_engine.Drive.transitions

let create ~id ~engine ~compiled ~drives ~slope ~budget ~watchdog ~t_stop =
  let spec =
    Sim.spec ~drives ?t_stop ~budget ?watchdog
      ~overlay:compiled.Compiled.overlay ~tech:compiled.Compiled.tech
      compiled.Compiled.circuit
  in
  let sim = Sim.Session.start ~compiled engine spec in
  let levels = Array.make compiled.Compiled.nsignals false in
  List.iter (fun (sid, d) -> levels.(sid) <- drive_final_level d) drives;
  {
    se_id = id;
    se_compiled = compiled;
    se_sim = sim;
    se_slope = slope;
    se_frontier = 0.;
    se_levels = levels;
  }

let id t = t.se_id
let circuit t = t.se_compiled.Compiled.circuit
let frontier t = t.se_frontier

let signal_id t name =
  match Netlist.find_signal (circuit t) name with
  | Some sid -> sid
  | None ->
      Diag.fail ~code:"unknown-signal"
        (Printf.sprintf "circuit %s has no signal named %s" (Netlist.name (circuit t)) name)

let check_not_past t ~at =
  if at < t.se_frontier then
    Diag.fail ~code:"past-time"
      (Printf.sprintf
         "instant %g ps is before the session frontier %g ps (already simulated)" at
         t.se_frontier)

let set_input t ~signal ~at ~level ~slope =
  let sid = signal_id t signal in
  if not (Netlist.signal (circuit t) sid).Netlist.is_primary_input then
    Diag.fail ~code:"not-an-input"
      (Printf.sprintf "%s is not a primary input" signal);
  check_not_past t ~at;
  let slope = match slope with Some s -> s | None -> t.se_slope in
  if t.se_levels.(sid) = level then false
  else begin
    t.se_levels.(sid) <- level;
    let tr =
      Transition.make ~start:at ~slope_time:slope
        ~polarity:(if level then Transition.Rising else Transition.Falling)
    in
    Sim.Session.set_input t.se_sim ~signal:sid [ tr ];
    true
  end

let inject t ~signal ~at ~width ~slope ~up =
  let sid = signal_id t signal in
  check_not_past t ~at;
  if width <= 0. then Diag.fail ~code:"bad-request" "pulse width must be positive";
  let slope = match slope with Some s -> s | None -> t.se_slope in
  let lead = if up then Transition.Rising else Transition.Falling in
  Sim.Session.inject t.se_sim
    {
      Sim.inj_signal = sid;
      inj_ramps =
        [
          Transition.make ~start:at ~slope_time:slope ~polarity:lead;
          Transition.make ~start:(at +. width) ~slope_time:slope
            ~polarity:(Transition.opposite lead);
        ];
    }

(* --- result rendering --- *)

let polarity_str = function Transition.Rising -> "rise" | Transition.Falling -> "fall"

let edge_json (e : Digital.edge) =
  Json.Obj [ ("at", Json.Num e.Digital.at); ("polarity", Json.Str (polarity_str e.Digital.polarity)) ]

let status_json t (r : Sim.result) =
  [
    ("time", Json.Num t.se_frontier);
    ("end_time", Json.Num r.Sim.rs_end_time);
    ("events", Json.Num (float_of_int r.Sim.rs_stats.Stats.events_processed));
    ( "transitions",
      Json.Num (float_of_int r.Sim.rs_stats.Stats.transitions_emitted) );
    ("truncated", Json.Bool r.Sim.rs_truncated);
    ("stopped_by", Stop.to_json r.Sim.rs_stopped_by);
    ("finished", Json.Bool (Sim.Session.finished t.se_sim));
  ]

let advance t ~upto =
  check_not_past t ~at:upto;
  t.se_frontier <- upto;
  let r = Sim.Session.advance t.se_sim ~upto in
  Json.Obj (status_json t r)

let query_edges t sigopt =
  let r = Sim.Session.snapshot t.se_sim in
  let named =
    match sigopt with
    | Some name ->
        let sid = signal_id t name in
        [ (name, (Sim.edges r).(sid)) ]
    | None -> Sim.output_edges r
  in
  Json.Obj
    [
      ( "edges",
        Json.Arr
          (List.map
             (fun (name, es) ->
               Json.Obj
                 [ ("signal", Json.Str name); ("edges", Json.Arr (List.map edge_json es)) ])
             named) );
    ]

let query_waveform t name =
  let sid = signal_id t name in
  let r = Sim.Session.snapshot t.se_sim in
  match Sim.iddm r with
  | None -> Diag.fail ~code:"bad-request" "waveform queries need a waveform engine"
  | Some ir ->
      let wf = ir.Halotis_engine.Iddm.waveforms.(sid) in
      let segs =
        List.map
          (fun (s : Waveform.segment) ->
            Json.Obj
              [
                ("start", Json.Num s.Waveform.transition.Transition.start);
                ("slope", Json.Num s.Waveform.transition.Transition.slope_time);
                ( "polarity",
                  Json.Str (polarity_str s.Waveform.transition.Transition.polarity) );
                ("v_start", Json.Num s.Waveform.v_start);
              ])
          (Waveform.segments wf)
      in
      Json.Obj
        [
          ("signal", Json.Str name);
          ("initial", Json.Num (Waveform.initial wf));
          ("segments", Json.Arr segs);
        ]

let query_offenders t n =
  let r = Sim.Session.snapshot t.se_sim in
  Json.Obj
    [
      ( "offenders",
        Json.Arr
          (List.map
             (fun (name, k) ->
               Json.Obj
                 [ ("signal", Json.Str name); ("edges", Json.Num (float_of_int k)) ])
             (Sim.top_offenders ~n r)) );
    ]

let query_stats t =
  let r = Sim.Session.snapshot t.se_sim in
  Json.Obj (("stats", Stats.to_json r.Sim.rs_stats) :: status_json t r)

let status t = Json.Obj (status_json t (Sim.Session.snapshot t.se_sim))
