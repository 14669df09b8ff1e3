module Netlist = Halotis_netlist.Netlist
module Tech = Halotis_tech.Tech
module DM = Halotis_delay.Delay_model
module Transition = Halotis_wave.Transition
module Waveform = Halotis_wave.Waveform
module Digital = Halotis_wave.Digital
module Vcd = Halotis_wave.Vcd
module Budget = Halotis_guard.Budget

type engine = Ddm | Cdm | Classic_inertial

let engine_to_string = function
  | Ddm -> "ddm"
  | Cdm -> "cdm"
  | Classic_inertial -> "classic"

let engine_of_string = function
  | "ddm" -> Some Ddm
  | "cdm" -> Some Cdm
  | "classic" -> Some Classic_inertial
  | _ -> None

let engine_display_name = function
  | Ddm -> DM.kind_to_string DM.Ddm
  | Cdm -> DM.kind_to_string DM.Cdm
  | Classic_inertial -> "classic"

type injection = {
  inj_signal : Netlist.signal_id;
  inj_ramps : Transition.t list;
}

type spec = {
  sp_circuit : Netlist.t;
  sp_drives : (Netlist.signal_id * Drive.t) list;
  sp_tech : Tech.t;
  sp_overlay : Halotis_tech.Param_overlay.t;
  sp_t_stop : Halotis_util.Units.time option;
  sp_injections : injection list;
  sp_budget : Budget.t;
  sp_watchdog : Halotis_guard.Watchdog.config option;
  sp_trace : bool;
}

let spec ?(drives = []) ?(injections = []) ?t_stop ?(budget = Budget.unlimited)
    ?watchdog ?(trace = false) ?(overlay = Halotis_tech.Param_overlay.empty)
    ~tech circuit =
  {
    sp_circuit = circuit;
    sp_drives = drives;
    sp_tech = tech;
    sp_overlay = overlay;
    sp_t_stop = t_stop;
    sp_injections = injections;
    sp_budget = budget;
    sp_watchdog = watchdog;
    sp_trace = trace;
  }

type raw = Iddm_result of Iddm.result | Classic_result of Classic.result

type result = {
  rs_engine : engine;
  rs_spec : spec;
  rs_stats : Stats.t;
  rs_end_time : Halotis_util.Units.time;
  rs_truncated : bool;
  rs_stopped_by : Halotis_guard.Stop.t;
  rs_frozen : (Netlist.signal_id * Halotis_util.Units.time) list;
  rs_vt : Halotis_util.Units.voltage;
  rs_raw : raw;
  rs_edges : Digital.edge list array Lazy.t;
  rs_initial_levels : bool array Lazy.t;
}

(* The classic engine sees each ramp as an instantaneous value switch
   at its 50 % point — the same abstraction it applies to input drives
   ([start + slope_time / 2], see {!Classic.run}). *)
let classic_toggles ramps =
  List.map
    (fun (tr : Transition.t) ->
      (tr.Transition.start +. (tr.Transition.slope_time /. 2.),
       tr.Transition.polarity = Transition.Rising))
    ramps

(* The IDDM-side run configuration and injection shape shared by
   one-shot runs and sessions. *)
let iddm_config engine spec =
  let kind = match engine with Cdm -> DM.Cdm | _ -> DM.Ddm in
  Iddm.config ~overlay:spec.sp_overlay ~delay_kind:kind ?t_stop:spec.sp_t_stop
    ~trace:spec.sp_trace ~budget:spec.sp_budget ?watchdog:spec.sp_watchdog
    spec.sp_tech

let iddm_injections spec =
  List.map
    (fun i -> { Iddm.inj_signal = i.inj_signal; inj_transitions = i.inj_ramps })
    spec.sp_injections

let wrap_iddm engine spec ~vt (r : Iddm.result) =
  {
    rs_engine = engine;
    rs_spec = spec;
    rs_stats = r.Iddm.stats;
    rs_end_time = r.Iddm.end_time;
    rs_truncated = r.Iddm.truncated;
    rs_stopped_by = r.Iddm.stopped_by;
    rs_frozen = r.Iddm.frozen;
    rs_vt = vt;
    rs_raw = Iddm_result r;
    rs_edges = lazy (Array.map (fun wf -> Digital.edges wf ~vt) r.Iddm.waveforms);
    rs_initial_levels =
      lazy (Array.map (fun wf -> Waveform.initial wf > vt) r.Iddm.waveforms);
  }

let run ?compiled engine spec =
  let c = spec.sp_circuit in
  let vt = Tech.vdd spec.sp_tech /. 2. in
  match engine with
  | Ddm | Cdm ->
      let r =
        Iddm.run ~injections:(iddm_injections spec) ?compiled (iddm_config engine spec) c
          ~drives:spec.sp_drives
      in
      wrap_iddm engine spec ~vt r
  | Classic_inertial ->
      let cfg =
        Classic.config ~overlay:spec.sp_overlay ?t_stop:spec.sp_t_stop
          ~budget:spec.sp_budget ?watchdog:spec.sp_watchdog spec.sp_tech
      in
      let injections =
        List.map
          (fun i -> (i.inj_signal, classic_toggles i.inj_ramps))
          spec.sp_injections
      in
      let r = Classic.run ~injections cfg c ~drives:spec.sp_drives in
      {
        rs_engine = engine;
        rs_spec = spec;
        rs_stats = r.Classic.stats;
        rs_end_time = r.Classic.end_time;
        rs_truncated = r.Classic.truncated;
        rs_stopped_by = r.Classic.stopped_by;
        rs_frozen = r.Classic.frozen;
        rs_vt = vt;
        rs_raw = Classic_result r;
        rs_edges = lazy r.Classic.edges;
        rs_initial_levels = lazy r.Classic.initial_levels;
      }

let edges r = Lazy.force r.rs_edges
let initial_levels r = Lazy.force r.rs_initial_levels

let output_edges r =
  let c = r.rs_spec.sp_circuit in
  let edges = edges r in
  List.map
    (fun sid -> (Netlist.signal_name c sid, edges.(sid)))
    (Netlist.primary_outputs c)

let vcd_dumps r =
  let c = r.rs_spec.sp_circuit in
  match r.rs_raw with
  | Iddm_result ir ->
      Array.to_list
        (Array.map
           (fun (s : Netlist.signal) ->
             Vcd.of_waveform ~name:s.Netlist.signal_name ~vt:r.rs_vt
               ?x_from:(List.assoc_opt s.Netlist.signal_id r.rs_frozen)
               ir.Iddm.waveforms.(s.Netlist.signal_id))
           (Netlist.signals c))
  | Classic_result cr ->
      Array.to_list
        (Array.map
           (fun (s : Netlist.signal) ->
             {
               Vcd.dump_name = s.Netlist.signal_name;
               dump_initial = cr.Classic.initial_levels.(s.Netlist.signal_id);
               dump_edges = cr.Classic.edges.(s.Netlist.signal_id);
               dump_x_from = List.assoc_opt s.Netlist.signal_id r.rs_frozen;
             })
           (Netlist.signals c))

let top_offenders ?(n = 5) r =
  let c = r.rs_spec.sp_circuit in
  let edges = edges r in
  let counts = ref [] in
  Array.iteri
    (fun sid es ->
      let k = List.length es in
      if k > 0 then counts := (sid, k) :: !counts)
    edges;
  let sorted =
    List.sort
      (fun (ia, ka) (ib, kb) ->
        match Int.compare kb ka with 0 -> Int.compare ia ib | cmp -> cmp)
      !counts
  in
  List.filteri (fun i _ -> i < n) sorted
  |> List.map (fun (sid, k) -> (Netlist.signal_name c sid, k))

let iddm r = match r.rs_raw with Iddm_result ir -> Some ir | Classic_result _ -> None

let classic r =
  match r.rs_raw with Classic_result cr -> Some cr | Iddm_result _ -> None

let replay_hazard r =
  match r.rs_raw with
  | Iddm_result ir -> ir.Iddm.replay_hazard
  | Classic_result _ -> false

(* Incremental cone re-simulation: the fault-campaign fast path.  For
   an injection on [victim], only the victim's static fanout cone can
   ever diverge from the baseline — so instead of re-running the whole
   circuit, re-run the cone twice (without and with the pulse), diff
   those two small runs, and graft the diff onto the full baseline.

   Soundness rests on the runs being replayable: the event queue
   resolves equal-key ties by intrinsic pin-slot rank, so a cone replay
   pops coinciding events exactly as the full run did — the one history
   it cannot reconstruct is a retroactive invalidation (tp <= 0
   rewriting a waveform below an already-processed crossing), flagged
   as {!Iddm.result.replay_hazard} and checked in the full baseline
   (once at [create]; a hazardous baseline disables the context), in
   the cone replay of the baseline (per victim, plus a belt-and-braces
   edge comparison against the baseline itself), and in the injected
   cone run (per site).  Any hazard, any guardrail trip, or a
   driverless victim returns [Fallback] and the caller runs the site
   the old way; verdicts are byte-identical either way. *)
module Cone = struct
  module Compiled_ = Compiled
  module Stop = Halotis_guard.Stop

  type totals = {
    ct_exact : int;
    ct_fallback : int;
    ct_cone_gates : int;
    ct_cone_events : int;
  }

  (* Per-victim memo: campaigns strike the same driver outputs many
     times, and the cone plus its baseline replay depend only on the
     victim.  Only the replay's counters are kept: its waveforms live in
     the workspace, which the next cone run overwrites. *)
  type victim_entry = { ve_cone : Compiled_.cone; ve_base_stats : Stats.t }
  type victim_state = Good of victim_entry | Bad of string

  type ctx = {
    cx_engine : engine;
    cx_spec : spec;
    cx_compiled : Compiled_.t;
    cx_ws : Iddm.cone_workspace;
    cx_base_edges : Digital.edge list array; (* full-baseline digitized view *)
    cx_edges : Digital.edge list array;
        (* the latest graft: [cx_base_edges] with [cx_grafted] replaced *)
    mutable cx_grafted : int array;
    cx_base_stats : Stats.t;
    cx_vt : Halotis_util.Units.voltage;
    cx_victims : (int, victim_state) Hashtbl.t;
    mutable cx_exact : int;
    mutable cx_fallback : int;
    mutable cx_cone_gates : int;
    mutable cx_cone_events : int;
  }

  type outcome =
    | Exact of {
        edges : Digital.edge list array;
        members : int array;
        stats : Stats.t;
        cone_gates : int;
        cone_events : int;
      }
    | Fallback of string

  let create ?compiled engine spec ~baseline =
    match engine with
    | Classic_inertial -> None
    | Ddm | Cdm -> (
        if baseline.rs_engine <> engine then None
        else
          match baseline.rs_raw with
          | Classic_result _ -> None
          | Iddm_result br ->
              if
                (not (Stop.completed br.Iddm.stopped_by))
                || br.Iddm.replay_hazard
                || br.Iddm.frozen <> []
              then None
              else begin
                let c = spec.sp_circuit in
                let drives_tbl = Hashtbl.create 16 in
                List.iter (fun (sid, d) -> Hashtbl.replace drives_tbl sid d) spec.sp_drives;
                let input_level sid =
                  match Hashtbl.find_opt drives_tbl sid with
                  | Some (d : Drive.t) -> d.Drive.initial
                  | None -> false
                in
                let compiled =
                  match compiled with
                  | Some cp -> cp
                  | None -> Compiled_.compile ~overlay:spec.sp_overlay spec.sp_tech c
                in
                let base_edges = Lazy.force baseline.rs_edges in
                Some
                  {
                    cx_engine = engine;
                    cx_spec = spec;
                    cx_compiled = compiled;
                    cx_ws =
                      Iddm.cone_workspace ~compiled ~baseline:br
                        ~levels:(Dc.levels c ~input_level) (iddm_config engine spec) c;
                    cx_base_edges = base_edges;
                    cx_edges = Array.copy base_edges;
                    cx_grafted = [||];
                    cx_base_stats = baseline.rs_stats;
                    cx_vt = baseline.rs_vt;
                    cx_victims = Hashtbl.create 64;
                    cx_exact = 0;
                    cx_fallback = 0;
                    cx_cone_gates = 0;
                    cx_cone_events = 0;
                  }
              end)

  let run_cone ctx ~cone ~injections =
    Iddm.advance (Iddm.start_cone ~injections ctx.cx_ws ~cone) ~upto:infinity

  (* The baseline cone replay must land exactly on the full baseline:
     completed, hazard-free, and digitizing to the same edges on every
     member signal.  The edge comparison is the dirty-frontier check
     made static — any divergence (which hazard-freedom should already
     exclude) is caught here once per victim rather than trusted. *)
  let victim_entry ctx victim =
    match Hashtbl.find_opt ctx.cx_victims victim with
    | Some st -> st
    | None ->
        let st =
          if (Netlist.signal ctx.cx_spec.sp_circuit victim).Netlist.driver = None then
            Bad "victim has no driver gate (primary input or constant)"
          else begin
            let cone = Compiled_.fanout_cone ctx.cx_compiled ~victim in
            let base = run_cone ctx ~cone ~injections:[] in
            if not (Stop.completed base.Iddm.stopped_by) then
              Bad "baseline cone replay tripped a guardrail"
            else if base.Iddm.replay_hazard then Bad "baseline cone replay hazard"
            else if base.Iddm.frozen <> [] then Bad "baseline cone replay froze signals"
            else if
              Array.exists
                (fun sid ->
                  Digital.edges base.Iddm.waveforms.(sid) ~vt:ctx.cx_vt
                  <> ctx.cx_base_edges.(sid))
                cone.Compiled_.cone_signals
            then Bad "baseline cone replay diverged from the baseline"
            else Good { ve_cone = cone; ve_base_stats = base.Iddm.stats }
          end
        in
        Hashtbl.replace ctx.cx_victims victim st;
        st

  let run_site ctx (i : injection) =
    let fallback reason =
      ctx.cx_fallback <- ctx.cx_fallback + 1;
      Fallback reason
    in
    if i.inj_signal < 0 || i.inj_signal >= Array.length ctx.cx_base_edges then
      fallback "injection on unknown signal"
    else
      match victim_entry ctx i.inj_signal with
      | Bad reason -> fallback reason
      | Good { ve_cone; ve_base_stats } -> (
          let inj =
            run_cone ctx ~cone:ve_cone
              ~injections:[ { Iddm.inj_signal = i.inj_signal; inj_transitions = i.inj_ramps } ]
          in
          if not (Stop.completed inj.Iddm.stopped_by) then
            fallback "injected cone run tripped a guardrail"
          else if inj.Iddm.replay_hazard then fallback "injected cone run replay hazard"
          else if inj.Iddm.frozen <> [] then fallback "injected cone run froze signals"
          else begin
            (* Graft: member signals re-digitized from the injected cone
               run into the context's edge array, every other signal
               aliasing the baseline edge list.  Only the previous
               graft's members need restoring, so the graft costs
               O(cone), and non-members are physically equal to the
               baseline: classification compares [members] only (a
               structural [<>] on the aliased lists would still walk
               them).  The stats are the baseline's plus the cone delta,
               which equals the full-run counters exactly when the runs
               are order-deterministic. *)
            let edges = ctx.cx_edges in
            Array.iter (fun sid -> edges.(sid) <- ctx.cx_base_edges.(sid)) ctx.cx_grafted;
            let members = ve_cone.Compiled_.cone_signals in
            Array.iter
              (fun sid -> edges.(sid) <- Digital.edges inj.Iddm.waveforms.(sid) ~vt:ctx.cx_vt)
              members;
            ctx.cx_grafted <- members;
            let stats = Stats.copy ctx.cx_base_stats in
            Stats.merge stats (Stats.diff inj.Iddm.stats ve_base_stats);
            let cone_gates = Array.length ve_cone.Compiled_.cone_gates in
            let cone_events = inj.Iddm.stats.Stats.events_processed in
            ctx.cx_exact <- ctx.cx_exact + 1;
            ctx.cx_cone_gates <- ctx.cx_cone_gates + cone_gates;
            ctx.cx_cone_events <- ctx.cx_cone_events + cone_events;
            Exact { edges; members; stats; cone_gates; cone_events }
          end)

  let totals ctx =
    {
      ct_exact = ctx.cx_exact;
      ct_fallback = ctx.cx_fallback;
      ct_cone_gates = ctx.cx_cone_gates;
      ct_cone_events = ctx.cx_cone_events;
    }
end

module Session = struct
  type t = {
    ss_engine : engine;
    ss_spec : spec;
    ss_vt : Halotis_util.Units.voltage;
    ss_sess : Iddm.session;
  }

  let start ?compiled engine spec =
    match engine with
    | Classic_inertial ->
        invalid_arg
          "Sim.Session.start: resumable sessions need a waveform engine (ddm or cdm)"
    | Ddm | Cdm ->
        let sess =
          Iddm.start ~injections:(iddm_injections spec) ?compiled
            (iddm_config engine spec) spec.sp_circuit ~drives:spec.sp_drives
        in
        {
          ss_engine = engine;
          ss_spec = spec;
          ss_vt = Tech.vdd spec.sp_tech /. 2.;
          ss_sess = sess;
        }

  let wrap t r = wrap_iddm t.ss_engine t.ss_spec ~vt:t.ss_vt r
  let advance t ~upto = wrap t (Iddm.advance t.ss_sess ~upto)
  let snapshot t = wrap t (Iddm.session_result t.ss_sess)
  let set_input t ~signal ramps = Iddm.session_set_input t.ss_sess signal ramps

  let inject t (i : injection) =
    Iddm.session_inject t.ss_sess
      { Iddm.inj_signal = i.inj_signal; inj_transitions = i.inj_ramps }

  let time t = Iddm.session_time t.ss_sess
  let finished t = Iddm.session_finished t.ss_sess
  let engine t = t.ss_engine
  let spec t = t.ss_spec
end
