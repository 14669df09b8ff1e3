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

type injection = Iddm.injection = { inj_signal : Netlist.signal_id; inj_ramps : Transition.t list }

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

let spec ~drives ?(injections = []) ?t_stop ?(budget = Budget.unlimited)
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
  rs_stopped_by : Halotis_guard.Stop.t;
  rs_frozen : (Netlist.signal_id * Halotis_util.Units.time) list;
  rs_vt : Halotis_util.Units.voltage;
  rs_raw : raw;
  rs_edges : Digital.edge list array Lazy.t;
  rs_initial_levels : bool array Lazy.t;
}

(* The IDDM-side run configuration shared by sessions and the cone
   context. *)
let iddm_config engine spec =
  let kind = match engine with Cdm -> DM.Cdm | _ -> DM.Ddm in
  Iddm.config ~overlay:spec.sp_overlay ~delay_kind:kind ?t_stop:spec.sp_t_stop
    ~trace:spec.sp_trace ~budget:spec.sp_budget ?watchdog:spec.sp_watchdog
    spec.sp_tech

let wrap engine spec ~vt raw =
  match raw with
  | Iddm_result r ->
      {
        rs_engine = engine;
        rs_spec = spec;
        rs_stats = r.Iddm.stats;
        rs_end_time = r.Iddm.end_time;
        rs_stopped_by = r.Iddm.stopped_by;
        rs_frozen = r.Iddm.frozen;
        rs_vt = vt;
        rs_raw = raw;
        rs_edges = lazy (Array.map (fun wf -> Digital.edges wf ~vt) r.Iddm.waveforms);
        rs_initial_levels =
          lazy (Array.map (fun wf -> Waveform.initial wf > vt) r.Iddm.waveforms);
      }
  | Classic_result r ->
      {
        rs_engine = engine;
        rs_spec = spec;
        rs_stats = r.Classic.stats;
        rs_end_time = r.Classic.end_time;
        rs_stopped_by = r.Classic.stopped_by;
        rs_frozen = r.Classic.frozen;
        rs_vt = vt;
        rs_raw = raw;
        rs_edges = r.Classic.edges;
        rs_initial_levels = lazy r.Classic.initial_levels;
      }

(* A run's result, digitized at half the rail. *)
let wrap_run engine spec raw = wrap engine spec ~vt:(Tech.vdd spec.sp_tech /. 2.) raw

let edges r = Lazy.force r.rs_edges
let initial_levels r = Lazy.force r.rs_initial_levels

let output_edges r =
  let c = r.rs_spec.sp_circuit in
  let edges = edges r in
  List.map
    (fun sid -> (Netlist.signal_name c sid, edges.(sid)))
    (Netlist.primary_outputs c)

(* The common view is what [Vcd.of_waveform] digitizes, so one
   rendering serves every engine. *)
let vcd_dumps r =
  let edges = edges r and initial = initial_levels r in
  Array.to_list
    (Array.map
       (fun (s : Netlist.signal) ->
         let sid = s.Netlist.signal_id in
         {
           Vcd.dump_name = s.Netlist.signal_name;
           dump_initial = initial.(sid);
           dump_edges = edges.(sid);
           dump_x_from = List.assoc_opt sid r.rs_frozen;
         })
       (Netlist.signals r.rs_spec.sp_circuit))

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

(* The run configurations shared by sessions and the cone context. *)
let classic_config spec =
  Classic.config ~overlay:spec.sp_overlay ?t_stop:spec.sp_t_stop ~budget:spec.sp_budget
    ?watchdog:spec.sp_watchdog spec.sp_tech

let classic_injection i = (i.inj_signal, List.map Classic.toggle i.inj_ramps)

(* Incremental cone re-simulation: the fault-campaign fast path.  For
   an injection on [victim], only the victim's static fanout cone can
   ever diverge from the baseline — so instead of re-running the whole
   circuit, re-run the cone twice (without and with the pulse), diff
   those two small runs, and graft the diff onto the full baseline.

   Soundness rests on the cone runs replaying the full run's history.
   Both engines' queues break ties by intrinsic rank, so tie order
   replays exactly; each engine flags the histories it still cannot
   vouch for as [replay_hazard]: for IDDM a retroactive invalidation
   (tp <= 0 rewriting a waveform below an already-processed crossing),
   for classic a delay of tp <= 0.  The flag is checked in the
   full baseline (once at [create]; a hazardous baseline disables the
   context), in the cone replay of the baseline (per victim, plus a
   belt-and-braces edge comparison against the baseline itself), and
   in the injected cone run (per site).  Any hazard, any guardrail
   trip, or a driverless victim returns [Fallback] and the caller runs
   the site the old way; verdicts are byte-identical either way. *)
module Cone = struct
  module Stop = Halotis_guard.Stop

  type totals = {
    ct_exact : int;
    ct_fallback : int;
    ct_cone_gates : int;
    ct_cone_events : int;
    ct_fallback_reasons : (string * int) list;
  }

  (* Per-victim memo: campaigns strike the same driver outputs many
     times.  The cone depends only on the victim; its clean (baseline)
     replay also depends on the checkpoint a site's runs start from, so
     it is kept per checkpoint and run on first use.  Only a replay's
     counters are kept: its edges live in the workspace, which the next
     cone run overwrites. *)
  type victim_entry = {
    ve_cone : Compiled.cone;
    ve_clean : (Stats.t, string) Stdlib.result option array; (* checkpoint -> replay *)
  }

  type victim_state = Good of victim_entry | Bad of string

  type workspace =
    | Iddm_ws of Iddm.cone_workspace * Waveform.t array (* and the baseline's waveforms *)
    | Classic_ws of Classic.cone_workspace

  (* A finished cone run, as the checks and the graft read it.
     [cr_edges] and [cr_as_baseline] (a member signal ended exactly as
     in the baseline) read the workspace, so only until the next run. *)
  type cone_run = {
    cr_stopped_by : Stop.t;
    cr_hazard : bool;
    cr_frozen : bool;
    cr_stats : Stats.t;
    cr_edges : int -> Digital.edge list;
    cr_as_baseline : int -> bool;
  }

  type ctx = {
    cx_spec : spec;
    cx_compiled : Compiled.t;
    cx_ws : workspace;
    cx_grid : Halotis_util.Units.time array; (* the workspace's checkpoint instants *)
    cx_base_edges : Digital.edge list array; (* full-baseline digitized view *)
    cx_edges : Digital.edge list array;
        (* the latest graft: [cx_base_edges] with [cx_grafted] replaced *)
    mutable cx_grafted : int array;
    cx_base_stats : Stats.t;
    cx_vt : Halotis_util.Units.voltage;
    cx_marks : Compiled.cone_marks; (* for every [Compiled.fanout_cone] walk *)
    cx_victims : (int, victim_state) Hashtbl.t;
    cx_reasons : (string, int) Hashtbl.t; (* fallback reason -> sites *)
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
    let c = spec.sp_circuit in
    let hazard =
      match baseline.rs_raw with
      | Iddm_result r -> r.Iddm.replay_hazard
      | Classic_result r -> r.Classic.replay_hazard
    in
    if
      not
        (baseline.rs_engine = engine
        && Stop.completed baseline.rs_stopped_by
        && baseline.rs_frozen = [] && not hazard)
    then None
    else begin
      let compiled =
        Compiled.resolve ~who:"Sim.Cone.create" ?compiled ~overlay:spec.sp_overlay spec.sp_tech c
      in
      let ws, grid =
        match baseline.rs_raw with
        | Iddm_result br ->
            let ws =
              Iddm.cone_workspace ~compiled ~baseline:br (iddm_config engine spec) c
                ~drives:spec.sp_drives
            in
            (Iddm_ws (ws, br.Iddm.waveforms), Iddm.checkpoints ws)
        | Classic_result br ->
            let ws =
              Classic.cone_workspace ~compiled ~baseline:br (classic_config spec) c
                ~drives:spec.sp_drives
            in
            (Classic_ws ws, Classic.checkpoints ws)
      in
      let base_edges = Lazy.force baseline.rs_edges in
      Some
        {
          cx_spec = spec;
          cx_compiled = compiled;
          cx_ws = ws;
          cx_grid = grid;
          cx_base_edges = base_edges;
          cx_edges = Array.copy base_edges;
          cx_grafted = [||];
          cx_base_stats = baseline.rs_stats;
          cx_vt = baseline.rs_vt;
          cx_marks = Compiled.cone_marks compiled;
          cx_victims = Hashtbl.create 64;
          cx_reasons = Hashtbl.create 8;
          cx_exact = 0;
          cx_fallback = 0;
          cx_cone_gates = 0;
          cx_cone_events = 0;
        }
    end

  (* The latest checkpoint at or before the strike: the splice is
     queued at its first ramp's start, and a classic toggle at a ramp's
     50 % point, no earlier. *)
  let checkpoint_of ctx (i : injection) =
    match i.inj_ramps with
    | first :: _ -> Checkpoint_grid.latest ctx.cx_grid first.Transition.start
    | [] -> 0

  let run_cone ctx ~cone ~from ~injections =
    match ctx.cx_ws with
    | Iddm_ws (ws, base_wf) ->
        let r =
          Iddm.advance
            (Iddm.start_cone ~injections ws ~cone ~from)
            ~upto:infinity
        in
        {
          cr_stopped_by = r.Iddm.stopped_by;
          cr_hazard = r.Iddm.replay_hazard;
          cr_frozen = r.Iddm.frozen <> [];
          cr_stats = r.Iddm.stats;
          cr_edges = (fun sid -> Digital.edges r.Iddm.waveforms.(sid) ~vt:ctx.cx_vt);
          (* bit-identical waveforms digitize identically, and comparing
             them allocates nothing *)
          cr_as_baseline =
            (fun sid -> Waveform.equal r.Iddm.waveforms.(sid) base_wf.(sid));
        }
    | Classic_ws ws ->
        let r =
          Classic.advance
            (Classic.start_cone ~injections:(List.map classic_injection injections) ws ~cone ~from)
            ~upto:infinity
        in
        {
          cr_stopped_by = r.Classic.stopped_by;
          cr_hazard = r.Classic.replay_hazard;
          cr_frozen = r.Classic.frozen <> [];
          cr_stats = r.Classic.stats;
          cr_edges = Classic.cone_edges ws;
          (* the workspace hands back the baseline's own list exactly
             when the run ended the signal as the baseline did, and
             [cx_base_edges] holds those lists *)
          cr_as_baseline = (fun sid -> Classic.cone_edges ws sid == ctx.cx_base_edges.(sid));
        }

  (* Why a cone run cannot be trusted, if it cannot. *)
  let distrust what r =
    if not (Stop.completed r.cr_stopped_by) then Some (what ^ " tripped a guardrail")
    else if r.cr_hazard then Some (what ^ " hit a replay hazard")
    else if r.cr_frozen then Some (what ^ " froze signals")
    else None

  let victim_entry ctx victim =
    match Hashtbl.find_opt ctx.cx_victims victim with
    | Some st -> st
    | None ->
        let st =
          if (Netlist.signal ctx.cx_spec.sp_circuit victim).Netlist.driver = None then
            Bad "victim has no driver gate (primary input or constant)"
          else
            Good
              {
                ve_cone = Compiled.fanout_cone ~marks:ctx.cx_marks ctx.cx_compiled ~victim;
                ve_clean = Array.make (Array.length ctx.cx_grid) None;
              }
        in
        Hashtbl.replace ctx.cx_victims victim st;
        st

  (* The baseline cone replay from a checkpoint must land exactly on
     the full baseline: completed, hazard-free, and ending every member
     signal as the baseline did (waveforms bit for bit on IDDM engines,
     edges on the classic one).  The comparison is the
     dirty-frontier check made static — any divergence (which
     hazard-freedom should already exclude) is caught here once per
     victim and checkpoint rather than trusted. *)
  let clean_replay ctx ve ~from =
    match ve.ve_clean.(from) with
    | Some r -> r
    | None ->
        let cone = ve.ve_cone in
        let base = run_cone ctx ~cone ~from ~injections:[] in
        let r =
          match distrust "baseline cone replay" base with
          | Some reason -> Error reason
          | None ->
              if not (Array.for_all base.cr_as_baseline cone.Compiled.cone_signals) then
                Error "baseline cone replay diverged from the baseline"
              else Ok base.cr_stats
        in
        ve.ve_clean.(from) <- Some r;
        r

  let run_site ctx (i : injection) =
    let fallback reason =
      ctx.cx_fallback <- ctx.cx_fallback + 1;
      Hashtbl.replace ctx.cx_reasons reason
        (1 + Option.value ~default:0 (Hashtbl.find_opt ctx.cx_reasons reason));
      Fallback reason
    in
    if i.inj_signal < 0 || i.inj_signal >= Array.length ctx.cx_base_edges then
      fallback "injection on unknown signal"
    else
      match victim_entry ctx i.inj_signal with
      | Bad reason -> fallback reason
      | Good ve -> (
          let from = checkpoint_of ctx i in
          match clean_replay ctx ve ~from with
          | Error reason -> fallback reason
          | Ok clean_stats -> (
              let cone = ve.ve_cone in
              let inj = run_cone ctx ~cone ~from ~injections:[ i ] in
              match distrust "injected cone run" inj with
              | Some reason -> fallback reason
              | None ->
                  (* Graft: member signals' edges from the injected cone
                     run into the context's edge array, every other
                     signal aliasing the baseline edge list.  Only the
                     previous graft's members need restoring, so the
                     graft costs O(cone), and non-members are
                     physically equal to the baseline: classification
                     compares [members] only (a structural [<>] on the
                     aliased lists would still walk them).  The stats
                     are the baseline's plus the cone delta, which
                     equals the full-run counters exactly when the runs
                     are order-deterministic. *)
                  let edges = ctx.cx_edges in
                  Array.iter (fun sid -> edges.(sid) <- ctx.cx_base_edges.(sid)) ctx.cx_grafted;
                  let members = cone.Compiled.cone_signals in
                  Array.iter (fun sid -> edges.(sid) <- inj.cr_edges sid) members;
                  ctx.cx_grafted <- members;
                  let stats = Stats.copy ctx.cx_base_stats in
                  Stats.merge stats (Stats.diff inj.cr_stats clean_stats);
                  let cone_gates = Array.length cone.Compiled.cone_gates in
                  let cone_events = inj.cr_stats.Stats.events_processed in
                  ctx.cx_exact <- ctx.cx_exact + 1;
                  ctx.cx_cone_gates <- ctx.cx_cone_gates + cone_gates;
                  ctx.cx_cone_events <- ctx.cx_cone_events + cone_events;
                  Exact { edges; members; stats; cone_gates; cone_events }))

  let totals ctx =
    {
      ct_exact = ctx.cx_exact;
      ct_fallback = ctx.cx_fallback;
      ct_cone_gates = ctx.cx_cone_gates;
      ct_cone_events = ctx.cx_cone_events;
      ct_fallback_reasons =
        List.sort compare (Hashtbl.fold (fun r n acc -> (r, n) :: acc) ctx.cx_reasons []);
    }
end

(* Every engine runs through the same start/advance shape, so one
   session type covers them all and a one-shot run returns what a
   session advanced to the end returns. *)
module Session = struct
  type engine_session = Iddm_session of Iddm.session | Classic_session of Classic.session

  type t = { ss_engine : engine; ss_spec : spec; ss_sess : engine_session }

  let start ?compiled engine spec =
    let c = spec.sp_circuit and drives = spec.sp_drives in
    let sess =
      match engine with
      | Ddm | Cdm ->
          Iddm_session
            (Iddm.start
               ~injections:spec.sp_injections
               ?compiled (iddm_config engine spec) c ~drives)
      | Classic_inertial ->
          Classic_session
            (Classic.start
               ~injections:(List.map classic_injection spec.sp_injections)
               ?compiled (classic_config spec) c ~drives)
    in
    { ss_engine = engine; ss_spec = spec; ss_sess = sess }

  let wrap t raw = wrap_run t.ss_engine t.ss_spec raw

  let advance t ~upto =
    wrap t
      (match t.ss_sess with
      | Iddm_session s -> Iddm_result (Iddm.advance s ~upto)
      | Classic_session s -> Classic_result (Classic.advance s ~upto))

  let snapshot t =
    wrap t
      (match t.ss_sess with
      | Iddm_session s -> Iddm_result (Iddm.session_result s)
      | Classic_session s -> Classic_result (Classic.session_result s))

  let set_input t ~signal ramps =
    match t.ss_sess with
    | Iddm_session s -> Iddm.session_set_input s signal ramps
    | Classic_session s -> Classic.session_set_input s signal ramps

  let inject t i =
    match t.ss_sess with
    | Iddm_session s -> Iddm.session_inject s i
    | Classic_session s -> Classic.session_inject s (classic_injection i)

  let finished t =
    match t.ss_sess with
    | Iddm_session s -> Iddm.session_finished s
    | Classic_session s -> Classic.session_finished s
end

(* A one-shot IDDM run borrows the domain's run workspace
   ({!Iddm.run}); a session keeps state of its own. *)
let run ?compiled engine spec =
  match engine with
  | Ddm | Cdm ->
      wrap_run engine spec
        (Iddm_result
           (Iddm.run ~injections:spec.sp_injections ?compiled (iddm_config engine spec)
              spec.sp_circuit ~drives:spec.sp_drives))
  | Classic_inertial -> Session.advance (Session.start ?compiled engine spec) ~upto:infinity
