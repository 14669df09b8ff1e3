(** The conventional event-driven simulator HALOTIS is compared
    against: boolean values, one implicit switching threshold, and the
    classical inertial-delay rule — a pulse narrower than the gate
    delay is rejected {e at the driving gate's output}, so either every
    fanout sees it or none does.  This is the model whose "wrong
    results" the paper's Fig. 1(c) demonstrates.

    Scheduling semantics per gate output (textbook VHDL-style inertial
    drivers): a new transaction preempts pending transactions scheduled
    at or after it; a transaction landing closer than the gate's own
    delay to the previous pending one annihilates with it (the pulse is
    filtered and the output never moves).

    The engine runs on the same {!Compiled.t} as {!Iddm} (structure and
    CDM delay coefficients) and has the same run shape: {!start},
    {!advance}, live {!session_set_input} / {!session_inject}, and
    {!run} as a session advanced to the end.  {!start_cone} restricts a
    run to one fanout cone, the substrate of {!Sim.Cone} for this
    engine. *)

type mode =
  | Inertial  (** pulses narrower than the gate delay annihilate (default) *)
  | Transport  (** pure delay lines: every pulse propagates *)

type config = {
  tech : Halotis_tech.Tech.t;
  overlay : Halotis_tech.Param_overlay.t;
      (** parameter corner the gate delays are priced at; empty (the
          default) is bit-identical to pricing straight from [tech] *)
  t_stop : Halotis_util.Units.time option;
  mode : mode;
  budget : Halotis_guard.Budget.t;
      (** resource guardrails (see {!Iddm.config}); the classic engine
          is the one that genuinely needs them — a ring oscillator
          never quiesces here *)
  watchdog : Halotis_guard.Watchdog.config option;
}

val config :
  ?overlay:Halotis_tech.Param_overlay.t ->
  ?t_stop:Halotis_util.Units.time ->
  ?mode:mode ->
  ?budget:Halotis_guard.Budget.t ->
  ?watchdog:Halotis_guard.Watchdog.config ->
  Halotis_tech.Tech.t ->
  config

type result = {
  circuit : Halotis_netlist.Netlist.t;
  edges : Halotis_wave.Digital.edge list array Lazy.t;
      (** committed value changes per signal, time-ordered; fixed when
          the result is taken, built when first forced *)
  initial_levels : bool array;
  final_levels : bool array;
  stats : Stats.t;
  end_time : Halotis_util.Units.time;
  stopped_by : Halotis_guard.Stop.t;
      (** why the run stopped: anything but [Completed] means a
          guardrail stopped it, and the edges are a valid prefix of the
          full run *)
  frozen : (Halotis_netlist.Netlist.signal_id * Halotis_util.Units.time) list;
      (** signals a [Degrade]-mode watchdog froze, with the freeze
          instant — their values are meaningless (X) from that time on *)
  replay_hazard : bool;
      (** a cone run ({!start_cone}) could not vouch for its event
          order: a gate delay of tp <= 0 queued a transaction no later
          than its cause, possibly ahead of pops already due.  Always
          [false] for full runs, which replay nothing. *)
}

type injection =
  Halotis_netlist.Netlist.signal_id * (Halotis_util.Units.time * bool) list
(** Forced [(time, value)] toggles on one signal — the boolean
    abstraction of a SET strike.  Fanout gates apply the classical
    inertial filter to the resulting pulse, which is precisely the model
    {!Halotis_fault} campaigns compare against the IDDM treatment. *)

val toggle : Halotis_wave.Transition.t -> Halotis_util.Units.time * bool
(** A ramp's classic abstraction: an instantaneous switch, at its 50 %
    point ([start + slope_time / 2]), to the level it rises or falls
    to. *)

val run :
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  result
(** Input ramps are abstracted by {!toggle}.  [compiled] is as in
    {!Iddm.run}.
    A changed signal evaluates each distinct fanout gate once, in the
    order of the gates' first loads, priced at the gate's lowest pin on
    the signal.  Equivalent to [advance (start ...) ~upto:infinity].
    @raise Invalid_argument as {!Iddm.run} does. *)

(** {1 Resumable sessions}

    The run shape of {!Iddm}, with the same contracts: stepping is
    bit-identical to a one-shot {!run}.  Equal-instant entries pop by
    an intrinsic rank, as in {!Iddm}.  Input switches pop first, in
    the order {!start} seeds them (the drive table's order, then each
    drive's own; switches added to a live session after those).
    Injection toggles come next, in the order they were queued, and a
    driver transaction ranks by its signal's id.  The pop order
    therefore does not depend on when a transaction was queued. *)

type session

val start :
  ?injections:injection list ->
  ?compiled:Compiled.t ->
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  session

val advance : session -> upto:Halotis_util.Units.time -> result
(** As {!Iddm.advance}; the result's [final_levels] and [stats] alias
    the session.  Taking it costs O(signals); forcing its [edges] costs
    O(committed edges). *)

val session_set_input :
  session -> Halotis_netlist.Netlist.signal_id -> Halotis_wave.Transition.t list -> unit
(** Queues each ramp's 50 % point as an input switch, exactly as a
    drive's transitions are seeded, after annulling the input's queued
    switches at or after that point — the new ramp replaces the
    input's future, as in {!Iddm.session_set_input}.
    @raise Invalid_argument for unknown or non-input signals. *)

val session_inject : session -> injection -> unit
val session_finished : session -> bool
val session_result : session -> result

(** {1 Cone-restricted runs}

    The classic half of incremental fault campaigns ({!Sim.Cone}):
    re-run only a victim's {!Compiled.fanout_cone} against a finished
    baseline. *)

type cone_workspace
(** The state of cone runs against one baseline, built once and reused
    by every {!start_cone}: the baseline's checkpoints, and the
    circuit-sized per-run arrays (values, pending deques, committed
    edges, evaluation stamps, freeze and boundary marks, the
    transaction pool).  Each run resets only its cone and boundary
    signals, so a run costs O(cone), not O(circuit).  Single-threaded,
    like {!Compiled.t}. *)

val cone_workspace :
  ?grid:Halotis_util.Units.time list ->
  compiled:Compiled.t ->
  baseline:result ->
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Drive.t) list ->
  cone_workspace
(** A workspace for cone runs of [config] against [baseline], the
    finished {!run} of the same netlist, config and drives.  Soundness
    requires the baseline to be [Completed] and unfrozen.

    Checkpoints: building the workspace replays the baseline once and
    records its state at the instants of {!Checkpoint_grid.take}
    ([grid] replaces the default grid).  A checkpoint at [t] is the
    state after every event keyed before [t]: each signal's committed
    value, its live pending transactions with their keys, values and
    ranks, and its committed edges as the suffix of its baseline edge
    list from [t] on — O(signals + live transactions) each, never a
    copy of an edge list.  When the replay does not end on the
    baseline's exact counters, or [config] has a watchdog, only
    checkpoint 0, the DC state, is kept.
    @raise Invalid_argument as {!start} does, or when [baseline] is for
    another netlist. *)

val checkpoints : cone_workspace -> Halotis_util.Units.time array
(** The checkpoints' instants, as {!Iddm.checkpoints} has them. *)

val start_cone :
  ?injections:injection list -> cone_workspace -> cone:Compiled.cone -> from:int -> session
(** A run in which only the cone's gates evaluate, started from
    checkpoint [from]: the member signals' values and live transactions
    restored from it, and each boundary feed's events at or after the
    checkpoint queued — a driven primary input its drive's switches,
    ranked as {!start} ranks them, any other signal the baseline's
    committed edges, each ranked as the transaction that committed it.
    Unless the result carries [replay_hazard], the run processes the
    cone's events in the full run's order, so a struck run's counters
    minus its clean run's from the same checkpoint equal the full
    runs' difference.  Its own counters cover only the events from the
    checkpoint on.

    The session and its results live in the workspace: the next
    {!start_cone} invalidates them.  Read the member signals' edges
    with {!cone_edges}; the result's [edges] alias the workspace and
    hold the edges the run committed, for the member signals only.
    @raise Invalid_argument on a cone of a different netlist, an
    unknown checkpoint, or an injection outside the cone or with a
    toggle before the checkpoint. *)

val cone_edges : cone_workspace -> Halotis_netlist.Netlist.signal_id -> Halotis_wave.Digital.edge list
(** The committed edges of a member signal in the workspace's latest
    cone run, time-ordered: the baseline's before the run's checkpoint,
    then the run's own.  Exactly when they equal the baseline's, the
    list is the baseline's own (an element of its forced [edges]), so
    a physical comparison tells. *)

val edges_of_name : result -> string -> Halotis_wave.Digital.edge list
(** @raise Not_found for unknown names. *)
