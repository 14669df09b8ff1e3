(** The HALOTIS simulator: the paper's Fig. 4 algorithm.

    The simulator distinguishes {e transitions} (linear ramps stored
    per signal in {!Halotis_wave.Waveform} lists) from {e events}
    (instants a ramp crosses one particular gate input's threshold
    VT).  Processing one event:

    + the gate input's logic level flips; the gate function is
      evaluated;
    + if the output value changes, the output transition is computed
      with the configured delay model (DDM or CDM) and appended to the
      output waveform — possibly truncating or annulling earlier ramps
      (degradation made flesh);
    + for every fanout input of the output signal, pending events
      invalidated by the new ramp are {e deleted} from the event queue
      (Fig. 4's "delete Ej-1" branch) and the new ramp's own VT
      crossing, when it exists, is inserted.

    The same engine runs in HALOTIS-DDM or HALOTIS-CDM mode depending
    on [config.delay_kind]; [config.cancellation] exists only for the
    ablation study (disabling it breaks the inertial treatment). *)

type config = {
  tech : Halotis_tech.Tech.t;
  overlay : Halotis_tech.Param_overlay.t;
      (** parameter corner every delay coefficient and pin threshold
          is priced at; empty (the default) is bit-identical to
          pricing straight from [tech] *)
  delay_kind : Halotis_delay.Delay_model.kind;
  cancellation : bool;
  t_stop : Halotis_util.Units.time option;
  trace : bool;  (** record transition causality for {!explain} *)
  budget : Halotis_guard.Budget.t;
      (** resource guardrails; trips stop the run gracefully with a
          {!Halotis_guard.Stop.t} reason instead of raising.  Without
          its own [max_events] a run still stops after ten million
          events, the safety valve against oscillating circuits *)
  watchdog : Halotis_guard.Watchdog.config option;
      (** oscillation watchdog; [None] (default) disables it *)
}

val config :
  ?overlay:Halotis_tech.Param_overlay.t ->
  ?delay_kind:Halotis_delay.Delay_model.kind ->
  ?cancellation:bool ->
  ?t_stop:Halotis_util.Units.time ->
  ?trace:bool ->
  ?budget:Halotis_guard.Budget.t ->
  ?watchdog:Halotis_guard.Watchdog.config ->
  Halotis_tech.Tech.t ->
  config
(** Defaults: empty overlay, DDM, cancellation on, no time bound,
    tracing off, unlimited budget, no watchdog. *)

type trace_entry = {
  te_signal : Halotis_netlist.Netlist.signal_id;  (** where the ramp landed *)
  te_start : Halotis_util.Units.time;  (** the ramp's start instant *)
  te_gate : Halotis_netlist.Netlist.gate_id;  (** emitting gate *)
  te_pin : int;  (** the pin whose event triggered it *)
  te_cause_signal : Halotis_netlist.Netlist.signal_id;  (** signal driving that pin *)
  te_event_time : Halotis_util.Units.time;  (** when the triggering event fired *)
}

type result = {
  circuit : Halotis_netlist.Netlist.t;
  run_config : config;
  waveforms : Halotis_wave.Waveform.t array;  (** indexed by signal id *)
  stats : Stats.t;
  end_time : Halotis_util.Units.time;  (** time of the last processed event *)
  stopped_by : Halotis_guard.Stop.t;
      (** why the run stopped: anything but [Completed] means a
          guardrail (budget or watchdog halt) stopped it before it
          quiesced or reached [t_stop], and the waveforms are a valid
          prefix of the full run *)
  frozen : (Halotis_netlist.Netlist.signal_id * Halotis_util.Units.time) list;
      (** signals a [Degrade]-mode watchdog froze, with the freeze
          instant — their waveforms are meaningless (X) from that time
          on; in freeze order *)
  replay_hazard : bool;
      (** the run retroactively invalidated an event it had already
          processed: a degradation delay of tp <= 0 made a gate rewrite
          its output ramp from a start at or before a crossing some
          loading pin had popped, so that crossing is absent from the
          final waveform even though its consequences happened.  A
          cone replay seeded from final waveforms ({!start_cone})
          cannot reconstruct such a history — the soundness gate of
          {!Sim.Cone}.  Equal-key pop order itself is never a hazard:
          the event queue breaks ties by intrinsic pin-slot rank, so
          every run of a spec — full or cone-restricted — resolves
          coincidences identically. *)
  trace : trace_entry list;
      (** chronological causality record of every accepted output
          transition; empty unless [config.trace] *)
}

type injection = {
  inj_signal : Halotis_netlist.Netlist.signal_id;
      (** victim signal — typically a gate output (SET strike node) *)
  inj_ramps : Halotis_wave.Transition.t list;
      (** ramps spliced into the victim waveform, time-ordered; a SET
          pulse is a leading ramp plus its reversal [width] later *)
}

val run :
  ?injections:injection list ->
  ?compiled:Compiled.t ->
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  result
(** Simulates a circuit.  Primary inputs without a drive sit at
    logic 0.  Feedback loops are allowed when they have a DC fixed
    point (latches); see {!Dc.levels}.

    [compiled], when given, must be {!Compiled.compile} of exactly this
    netlist and [config.tech] (checked by physical equality) — the run
    then skips the flattening/coefficient setup.  Equal to
    [advance (start ...) ~upto:infinity], field for field.

    The run does not build its per-run state afresh: it borrows a workspace
    kept per domain (pin levels and pending queues, output targets,
    freeze marks, the event pool and queue, and a working waveform per
    signal), sized to the largest circuit the domain has run, resets
    only the entries this circuit uses, and hands back a result that
    owns an exact-size copy of each waveform ({!Halotis_wave.Waveform.copy}),
    so later runs never touch it.  A run that raises drops the
    workspace, and the domain's next run builds a fresh one.

    Each [injection] is spliced into its victim's waveform when the
    simulation clock reaches its first transition, using the engine's
    own append/fan-out machinery — so an injected runt degrades,
    truncates and threshold-crosses exactly like a native ramp (the
    substrate of {!Halotis_fault}).  Injections do not count towards
    [events_processed] or [transitions_emitted]; everything they cause
    downstream does.
    @raise Invalid_argument when the DC operating point does not settle
    (oscillating feedback), a drive names a non-input signal, or an
    injection names an unknown signal. *)

(** {1 Resumable sessions}

    A {!session} is a run that can pause between events and accept
    fresh stimulus while paused — the substrate of the [halotis serve]
    session layer.  The pause mechanism is free and exact: the main
    loop inspects the queue minimum before popping, so a session
    advanced in steps pops the same events in the same order as a
    one-shot {!run} of the same spec, and its waveforms, statistics and
    digitized edges are bit-identical (pinned by the equivalence test
    suite).  The budget monitor lives across [advance] calls, so event
    accounting is exact too.  Sessions are single-threaded. *)

type session

val start :
  ?injections:injection list ->
  ?compiled:Compiled.t ->
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  session
(** Validates, seeds drives and injections, and returns without
    processing any event.  Same contract (and exceptions) as {!run}. *)

type cone_workspace
(** The state of cone-restricted runs against one baseline, built once
    and reused by every {!start_cone}: the baseline's checkpoints, the
    waveform aliases, and the workspace a {!run} borrows, of its own
    and sized to this circuit (per-pin levels and pending queues,
    per-gate output targets, freeze marks, the event pool, a working
    waveform per signal).  The checkpoint replay runs in that
    workspace, reset as {!run} resets it; each cone run then resets
    only what its cone touches, so a run costs O(cone), not
    O(circuit).  Single-threaded, like {!Compiled.t}. *)

val cone_workspace :
  ?grid:Halotis_util.Units.time list ->
  compiled:Compiled.t ->
  baseline:result ->
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  cone_workspace
(** A workspace for cone runs of [config] against [baseline], a finished
    run of the same netlist, config and [drives].  Soundness requires
    the baseline to be [Completed] with [replay_hazard = false] (see
    {!start_cone}).

    Checkpoints: building the workspace replays the baseline once, in
    the workspace itself, and records its state at the instants of
    {!Checkpoint_grid.take} ([grid] replaces the default grid).  A
    checkpoint at [t] is the state after every event keyed before [t]: pin levels,
    output targets, last-pop keys, live pending pin events, and each
    signal's waveform as a prefix length into its final baseline
    waveform plus the segments annulled after [t] — O(pins + signals +
    live events) each, never a copy of whole waveforms.  When the replay
    does not end on the baseline's exact counters, or [config] has a
    watchdog, only checkpoint 0, the DC state, is kept.
    @raise Invalid_argument on compiled/baseline mismatches (compiled
    is checked by physical equality), drives {!start} rejects, or
    [config.cancellation = false] (without cancellation, processed
    events and final-waveform crossings no longer coincide, so the
    boundary seeding is unsound). *)

val checkpoints : cone_workspace -> Halotis_util.Units.time array
(** The checkpoints' instants, ascending, as {!Checkpoint_grid.t} has
    them: at least one, as checkpoint 0 is the DC state
    ([neg_infinity]).  {!Checkpoint_grid.latest} of a strike's instant
    picks the checkpoint its runs start from.  The array is the
    workspace's own: do not write it. *)

val start_cone :
  ?injections:injection list ->
  cone_workspace ->
  cone:Compiled.cone ->
  from:int ->
  session
(** A run restricted to a {!Compiled.cone}, started from checkpoint
    [from]: the cone's member waveforms, member-gate pins and output
    targets restored from the checkpoint, the baseline's finished
    waveforms aliased read-only everywhere else, the live events of pins
    fed from inside the cone re-queued (intrinsic heap ranks make their
    pop order exact), and each boundary feed's final baseline crossings
    at or after the checkpoint queued.  The cone's closure under fanout
    guarantees nothing ever escapes, so no runtime frontier check is
    needed.  Whenever the clean cone run from checkpoint 0 replays the
    baseline exactly ({!Sim.Cone} checks every clean replay against the
    baseline), a run from a later
    checkpoint, advanced to the end, equals the run from checkpoint 0
    on every member signal, and a struck run's counters minus its clean
    run's from the same checkpoint equal theirs from checkpoint 0.  Its
    own counters cover only the events from the checkpoint on.

    The session and its results live in the workspace: starting the
    next cone run on the same workspace invalidates them (their
    waveform array is overwritten), so consume a run before starting
    another.  Its {!Stats.t} is the run's own and stays valid.

    The cone session's own [replay_hazard] must be checked by the
    caller before trusting its delta (see {!Sim.Cone}, which drives
    every check and falls back to a full run otherwise).  Every
    injection must name a cone member signal — an outside splice would
    write an aliased baseline waveform — and start at or after the
    checkpoint ({!Checkpoint_grid.latest} of its first ramp's start
    picks the latest such).
    @raise Invalid_argument on a cone of a different netlist, an
    unknown checkpoint, or an out-of-cone or too-early injection. *)

val advance : session -> upto:Halotis_util.Units.time -> result
(** Processes every queued event with instant [<= upto] (clamped to the
    run's horizon), then snapshots.  [upto = infinity] finishes the
    run.  The returned result aliases the session's live waveforms and
    statistics: consume it before advancing further.  Idempotent once
    {!session_finished}. *)

val session_set_input :
  session -> Halotis_netlist.Netlist.signal_id -> Halotis_wave.Transition.t list -> unit
(** Appends fresh ramps to a primary input's waveform and propagates
    them exactly as the engine's own append/fan-out machinery would
    (cancellation included), waking a quiesced session.  The caller
    must keep ramps at or after the last [advance] horizon — appending
    into already-simulated time rewrites history.
    @raise Invalid_argument for unknown or non-input signals. *)

val session_inject : session -> injection -> unit
(** Queues a live injection splice, exactly like a [start]-time
    injection whose instant has not yet been reached.  Same caveat on
    past instants as {!session_set_input}. *)

val session_finished : session -> bool
(** No queued event can ever be processed again: the queue drained, the
    horizon was passed, or a guardrail stopped the run.  Fresh stimulus
    clears the first case; a guardrail stop is final. *)

val session_result : session -> result
(** Snapshot without advancing (same aliasing caveat as {!advance}). *)

val waveform : result -> string -> Halotis_wave.Waveform.t
(** Looks a signal's waveform up by name.
    @raise Not_found for unknown names. *)

val explain :
  result ->
  signal:Halotis_netlist.Netlist.signal_id ->
  at:Halotis_util.Units.time ->
  trace_entry list
(** The causality chain (primary-input side first) of the ramp live on
    [signal] at time [at]: each entry names the gate that emitted the
    ramp, the pin event that triggered it, and the driving signal —
    following which leads to the previous link.  Empty when the run was
    not traced, the signal is a primary input, or it never switched
    before [at]. *)

val pp_explanation :
  result -> Format.formatter -> trace_entry list -> unit
(** One line per link: time, gate, pin, signal. *)
