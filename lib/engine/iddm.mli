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
  max_events : int;  (** safety valve against oscillating circuits *)
  trace : bool;  (** record transition causality for {!explain} *)
  budget : Halotis_guard.Budget.t;
      (** resource guardrails; trips stop the run gracefully with a
          {!Halotis_guard.Stop.t} reason instead of raising.  Its
          [max_events] combines with the legacy [max_events] field (the
          tighter bound wins) *)
  watchdog : Halotis_guard.Watchdog.config option;
      (** oscillation watchdog; [None] (default) disables it *)
}

val config :
  ?overlay:Halotis_tech.Param_overlay.t ->
  ?delay_kind:Halotis_delay.Delay_model.kind ->
  ?cancellation:bool ->
  ?t_stop:Halotis_util.Units.time ->
  ?max_events:int ->
  ?trace:bool ->
  ?budget:Halotis_guard.Budget.t ->
  ?watchdog:Halotis_guard.Watchdog.config ->
  Halotis_tech.Tech.t ->
  config
(** Defaults: empty overlay, DDM, cancellation on, no time bound, 10
    million events, tracing off, unlimited budget, no watchdog. *)

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
  truncated : bool;
      (** true when a guardrail (budget or watchdog halt) stopped the
          run before it quiesced or reached [t_stop]; the waveforms are
          a valid prefix of the full run *)
  stopped_by : Halotis_guard.Stop.t;
      (** the precise stop reason ([Completed] iff [not truncated]) *)
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
  inj_transitions : Halotis_wave.Transition.t list;
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
    then skips the flattening/coefficient setup.  Equivalent to
    [advance (start ...) ~upto:infinity].

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
(** The circuit-sized state of cone-restricted runs, allocated once and
    reused by every {!start_cone} against one baseline: waveform
    aliases, per-pin levels and pending queues, per-gate output
    targets, freeze marks, and the event pool.  Each run resets only
    what its cone touches, so a run costs O(cone), not O(circuit).
    Single-threaded, like {!Compiled.t}. *)

val cone_workspace :
  compiled:Compiled.t ->
  baseline:result ->
  levels:bool array ->
  config ->
  Halotis_netlist.Netlist.t ->
  cone_workspace
(** A workspace for cone runs of [config] against [baseline], a finished
    run of the same netlist and config.  [levels] must be the baseline's
    DC operating point ({!Dc.levels} of the same drives).  Soundness
    requires the baseline to be [Completed] with [replay_hazard =
    false] (see {!start_cone}).
    @raise Invalid_argument on compiled/baseline/levels mismatches
    (compiled is checked by physical equality, as in {!start}), or
    [config.cancellation = false] (without cancellation, processed
    events and final-waveform crossings no longer coincide, so the
    boundary seeding is unsound). *)

val start_cone :
  ?injections:injection list ->
  cone_workspace ->
  cone:Compiled.cone ->
  session
(** A run restricted to a {!Compiled.cone}: fresh waveforms for the
    cone's member signals, the baseline's finished waveforms aliased
    read-only everywhere else, and the event queue seeded by replaying
    each boundary feed's baseline crossings (the cone's closure under
    fanout guarantees nothing ever escapes, so no runtime frontier
    check is needed).

    The session and its results live in the workspace: starting the
    next cone run on the same workspace invalidates them (their
    waveform array is overwritten), so consume a run before starting
    another.  Its {!Stats.t} is the run's own and stays valid.

    The cone session's own [replay_hazard] must be checked by the
    caller before trusting its delta (see {!Sim.Cone}, which drives
    every check and falls back to a full run otherwise).  Every
    injection must name a cone member signal — an outside splice would
    write an aliased baseline waveform.
    @raise Invalid_argument on a cone of a different netlist or an
    out-of-cone injection. *)

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

val waveform_of_id :
  result -> Halotis_netlist.Netlist.signal_id -> Halotis_wave.Waveform.t

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

val output_edges :
  ?vt:Halotis_util.Units.voltage ->
  result ->
  (string * Halotis_wave.Digital.edge list) list
(** Digitized primary outputs (default threshold VDD/2), in declaration
    order. *)
