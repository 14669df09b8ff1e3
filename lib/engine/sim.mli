(** The engine-agnostic simulation facade.

    Every consumer that used to dispatch on "which engine am I
    running?" — the CLI's [simulate]/[compare]/[faults] commands, fault
    campaigns, injected re-runs — goes through this module instead:
    one {!spec} describes the run (circuit, drives, injections,
    guardrails, horizon) and {!run} executes it on the chosen engine,
    returning a {!result} whose common view (digitized edges, initial
    levels, statistics, stop reason) is engine-independent.  The
    engine-specific payload stays reachable through {!raw} for callers
    that genuinely need waveforms ([ddm]/[cdm]) or boolean levels
    ([classic]).

    Both kernels ({!Iddm} and {!Classic}) run on one substrate, a
    {!Compiled.t}, and have one run shape: [start], [advance ~upto],
    live [set_input]/[inject], with a one-shot run being [advance (start
    ...) ~upto:infinity].  {!Session} wraps that shape for every engine
    and {!run} is a session advanced to the end.

    Injections are engine-agnostic too: a list of linear ramps spliced
    into a victim signal.  The IDDM engines consume the ramps verbatim;
    the classic engine abstracts each ramp to an instantaneous value
    toggle at its 50 % point ([start + slope_time / 2]) — exactly the
    boolean abstraction [doc/faults.md] describes, so
    {!Halotis_fault} campaigns produce bit-identical verdicts through
    this facade. *)

type engine = Ddm | Cdm | Classic_inertial

val engine_to_string : engine -> string
(** ["ddm"], ["cdm"] or ["classic"] — the CLI/report token. *)

val engine_of_string : string -> engine option

val engine_display_name : engine -> string
(** ["DDM"], ["CDM"] or ["classic"] — the human-facing label used by
    [simulate] output (matches the historical
    {!Halotis_delay.Delay_model.kind_to_string} rendering). *)

type injection = {
  inj_signal : Halotis_netlist.Netlist.signal_id;  (** victim signal *)
  inj_ramps : Halotis_wave.Transition.t list;
      (** ramps spliced into the victim, time-ordered; a SET pulse is a
          leading ramp plus its reversal [width] later *)
}

type spec = {
  sp_circuit : Halotis_netlist.Netlist.t;
  sp_drives : (Halotis_netlist.Netlist.signal_id * Drive.t) list;
  sp_tech : Halotis_tech.Tech.t;
  sp_overlay : Halotis_tech.Param_overlay.t;
      (** parameter corner every engine run of this spec prices its
          coefficients at; empty (the default) is bit-identical to
          pricing straight from [sp_tech] *)
  sp_t_stop : Halotis_util.Units.time option;  (** simulation horizon *)
  sp_injections : injection list;
  sp_budget : Halotis_guard.Budget.t;
  sp_watchdog : Halotis_guard.Watchdog.config option;
  sp_trace : bool;  (** causality tracing; IDDM engines only *)
}

val spec :
  ?drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  ?injections:injection list ->
  ?t_stop:Halotis_util.Units.time ->
  ?budget:Halotis_guard.Budget.t ->
  ?watchdog:Halotis_guard.Watchdog.config ->
  ?trace:bool ->
  ?overlay:Halotis_tech.Param_overlay.t ->
  tech:Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  spec
(** Defaults: no drives, no injections, no horizon, unlimited budget,
    no watchdog, tracing off, empty overlay. *)

type raw =
  | Iddm_result of Iddm.result  (** [Ddm] and [Cdm] runs *)
  | Classic_result of Classic.result

type result = {
  rs_engine : engine;
  rs_spec : spec;
  rs_stats : Stats.t;
  rs_end_time : Halotis_util.Units.time;
  rs_truncated : bool;
  rs_stopped_by : Halotis_guard.Stop.t;
  rs_frozen : (Halotis_netlist.Netlist.signal_id * Halotis_util.Units.time) list;
  rs_vt : Halotis_util.Units.voltage;
      (** the digitization threshold of the common view: VDD/2 of
          [sp_tech] *)
  rs_raw : raw;
  rs_edges : Halotis_wave.Digital.edge list array Lazy.t;
      (** memoization cell behind {!edges}; force through the accessor *)
  rs_initial_levels : bool array Lazy.t;
      (** memoization cell behind {!initial_levels} *)
}

val run : ?compiled:Compiled.t -> engine -> spec -> result
(** Runs the spec on the chosen engine to the end:
    [Session.advance (Session.start ?compiled engine spec) ~upto:infinity].

    [compiled] shares a pre-flattened circuit with any engine, which
    then skips its own compilation (a campaign compiles once for its
    baselines, cone context and full re-runs; the serve cache shares one
    across sessions).  It must be {!Compiled.compile} of exactly the
    spec's netlist, tech and overlay ({!Compiled.check}).
    @raise Invalid_argument as the underlying engines do (unsettled DC
    point, unknown injection signal, bad drive, foreign [compiled]). *)

(** {1 Common result view} *)

val edges : result -> Halotis_wave.Digital.edge list array
(** Per-signal digitized edges at [rs_vt], indexed by signal id —
    computed from the waveforms for IDDM runs, taken verbatim from the
    classic engine.  Memoized: the first call digitizes, later calls
    are free. *)

val initial_levels : result -> bool array
(** Per-signal initial logic level (also memoized). *)

val output_edges : result -> (string * Halotis_wave.Digital.edge list) list
(** Primary outputs in declaration order, with their edges. *)

val vcd_dumps : result -> Halotis_wave.Vcd.signal_dump list
(** Every signal as a VCD dump, watchdog-frozen intervals marked [x] —
    the payload of [simulate --vcd] for any engine. *)

val top_offenders : ?n:int -> result -> (string * int) list
(** The [n] (default 5) signals with the most committed edges,
    descending (ties by signal id) — the watchdog's event-rate view of
    a finished run, available whether or not a watchdog ran or
    tripped.  Signals with no edges are omitted. *)

(** {1 Engine-specific access} *)

val iddm : result -> Iddm.result option
(** The full IDDM result (waveforms, trace) — [None] for classic runs. *)

val classic : result -> Classic.result option

(** {1 Incremental cone re-simulation}

    The fault-campaign fast path: an injection on [victim] can only
    perturb the victim's static fanout cone ({!Compiled.fanout_cone}),
    so instead of re-running the whole circuit per site, a {!Cone.ctx}
    re-runs just the cone twice — once clean, once with the pulse —
    and grafts the difference onto the full baseline.  One context
    serves every engine: the cone runs are {!Iddm.start_cone} runs for
    DDM and CDM and {!Classic.start_cone} runs for the classic engine.
    On DDM and CDM both runs of a site start from the latest baseline
    checkpoint at or before the strike ({!Iddm.cone_workspace}), so the
    stretch before the strike, where they would only replay the
    baseline, is skipped.  Classic runs start from the DC state.
    The grafted edges and statistics are {e exactly} what a full
    injected run would produce whenever every involved run is
    replayable (hazard-free, see {!Iddm.result.replay_hazard} and
    {!Classic.result.replay_hazard}) and no guardrail trips; every
    other case returns {!Cone.Fallback} and the caller re-simulates the
    site in full, so campaign verdicts are byte-identical with the
    optimization on or off. *)
module Cone : sig
  type ctx

  (** Cumulative accounting across {!run_site} calls, for reporting a
      campaign's incremental behaviour (bench and CLI summaries; never
      part of verdict bytes). *)
  type totals = {
    ct_exact : int;  (** sites answered by the cone graft *)
    ct_fallback : int;  (** sites that fell back to a full re-run *)
    ct_cone_gates : int;  (** total cone gates over exact sites *)
    ct_cone_events : int;
        (** total injected-cone events processed over exact sites,
            each run counted from its checkpoint on *)
    ct_fallback_reasons : (string * int) list;
        (** fallback sites per {!Fallback} reason, sorted by reason *)
  }

  type outcome =
    | Exact of {
        edges : Halotis_wave.Digital.edge list array;
            (** per-signal digitized edges of the injected run: cone
                members re-digitized, all others the baseline's own
                (physically equal) lists.  The array belongs to the
                context and the next {!run_site} overwrites it: consume
                or copy it first *)
        members : int array;
            (** the cone's member signals, ascending — the only entries
                of [edges] that can differ from the baseline *)
        stats : Stats.t;
            (** baseline counters plus the cone delta — equal to the
                full injected run's counters *)
        cone_gates : int;
        cone_events : int;
      }
    | Fallback of string  (** human-readable reason; run the site in full *)

  val create : ?compiled:Compiled.t -> engine -> spec -> baseline:result -> ctx option
  (** Compiles the circuit (or takes [compiled], checked as in {!run}),
      captures the baseline's digitized view, allocates the engine's
      cone workspace ({!Iddm.cone_workspace}, which replays the
      baseline once to record its checkpoints, or
      {!Classic.cone_workspace}) every cone run of the context reuses,
      and arms the per-victim memo.  [spec] must be the baseline's spec
      (same circuit, drives, tech, horizon) and [baseline] its finished
      result on [engine].  Returns [None] — incremental disabled for
      the whole campaign — for an engine/baseline mismatch, or a
      baseline that is truncated, watchdog-frozen or
      replay-hazardous.
      @raise Invalid_argument when [compiled] is for another netlist,
      tech or overlay. *)

  val run_site : ctx -> injection -> outcome
  (** One injection site.  Cone construction is memoized per victim
      signal, and the clean cone replay per victim and checkpoint; the
      injected cone run is fresh.  A site's cost scales with its cone
      and with the cone's activity after the checkpoint, not with the
      circuit.  [cone_events] counts the injected run's events from its
      checkpoint on.  Falls back (never raises) on driverless victims,
      guardrail trips, replay hazards, or a cone replay that fails to
      end as the baseline did. *)

  val totals : ctx -> totals
end

(** {1 Resumable sessions}

    The facade over {!Iddm.start}/{!Iddm.advance} and
    {!Classic.start}/{!Classic.advance}, and the only place that
    dispatches on the engine: a run that pauses between events, accepts
    fresh stimulus while paused, and — advanced in steps — stays
    bit-identical to a one-shot {!run} of the same spec, on every
    engine. *)
module Session : sig
  type t

  val start : ?compiled:Compiled.t -> engine -> spec -> t
  (** Seeds the spec's drives and injections without processing any
      event.  [compiled] shares a pre-flattened circuit (see
      {!Compiled}); it must be for exactly the spec's netlist, tech and
      overlay.
      @raise Invalid_argument as {!run} does (unsettled DC point, bad
      drive, unknown injection signal, foreign [compiled]). *)

  val advance : t -> upto:Halotis_util.Units.time -> result
  (** Processes every queued event at or before [upto] (clamped to the
      spec's horizon); [upto = infinity] finishes the run.  The result
      aliases the session's live state — query it before advancing
      again (its lazy edge view digitizes at force time). *)

  val snapshot : t -> result
  (** The current result without advancing (same aliasing caveat). *)

  val set_input :
    t -> signal:Halotis_netlist.Netlist.signal_id -> Halotis_wave.Transition.t list -> unit
  (** Appends fresh ramps to a primary input and propagates them
      through the engine's own cancellation/fan-out machinery, waking a
      quiesced session; the classic engine queues each ramp's 50 %
      point, as it does for drives.  Each ramp replaces the input's
      queued future on every engine (stored ramps, or classic switches,
      at or after it are dropped).  Ramps must lie at or after the last
      [advance] horizon. @raise Invalid_argument for non-input
      signals. *)

  val inject : t -> injection -> unit
  (** Splices a live SET pulse, queued at its first ramp's instant —
      exactly like a [start]-time injection not yet reached. *)

  val finished : t -> bool
  (** No queued event can ever run again (drained, past the horizon, or
      guardrail-stopped); fresh stimulus clears the drained case. *)
end
