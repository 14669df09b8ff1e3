(** A circuit compiled for the event kernel, independent of any one
    run.

    {!Iddm.run} used to rebuild these structures at every invocation:
    the CSR-flattened netlist (per-(gate, pin) slot arrays and the
    fanout edge list), the per-pin switching thresholds, and the
    {!Halotis_delay.Delay_model.Cache} delay coefficients; the gate
    topological order that DC settling follows is recorded with them.
    All of them depend only on the netlist and the technology — never
    on drives, injections or budgets — so a long-lived service compiles once and
    starts many sessions against the same {!t} (the compiled-circuit
    cache of [lib/serve] stores exactly these).

    Sharing discipline: every array here is read-only to the engines.
    Per-run state (waveforms, pin levels, pending queues, event pools)
    never lives here: a session owns its own, a one-shot {!Iddm.run}
    borrows its domain's run workspace, which is sized to the largest
    circuit that domain has run rather than kept per {!t}, and a cone
    workspace keeps one for all its runs.  The delay cache carries a
    small scratch buffer written by each [eval] and read back
    immediately, so a {!t} may be shared by any number of
    {e interleaved} sessions in one thread but must not be used from
    several threads at once. *)

type t = {
  circuit : Halotis_netlist.Netlist.t;
  tech : Halotis_tech.Tech.t;
  overlay : Halotis_tech.Param_overlay.t;
      (** the parameter corner the delay coefficients and pin
          thresholds below were priced at; empty for the nominal
          circuit *)
  nsignals : int;
  ngates : int;
  npins : int;  (** total (gate, pin) slots; [g_base.(ngates)] *)
  g_kind : Halotis_logic.Gate_kind.t array;  (** gate -> logic function *)
  g_out : int array;  (** gate -> output signal *)
  g_base : int array;  (** gate -> first pin slot; length [ngates + 1] *)
  pin_fanin : int array;  (** pin slot -> driving signal *)
  pin_vt : float array;  (** pin slot -> switching threshold *)
  fan_off : int array;  (** signal -> first fanout edge; length [nsignals + 1] *)
  fan_gate : int array;  (** fanout edge -> loading gate *)
  fan_pin : int array;  (** fanout edge -> pin of that gate *)
  topo_order : int array option;
      (** every gate once, each after the gates that drive its pins
          (Kahn's algorithm over the arrays above); [None] when the
          circuit has feedback.  {!Dc.levels} settles in this order. *)
  cache : Halotis_delay.Delay_model.Cache.t;
      (** per-(gate, edge) delay coefficients for this tech *)
}

val compile :
  ?overlay:Halotis_tech.Param_overlay.t ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  t
(** Flattens the netlist and prices the delay coefficients.  Pure
    setup: performs no simulation and touches no global state.
    [overlay] (default empty) prices every coefficient — delay cache
    and pin switching thresholds — at the given parameter corner; the
    empty overlay is skipped entirely, so the compiled bytes match the
    historical overlay-free path bit-for-bit. *)

val check :
  who:string ->
  t ->
  overlay:Halotis_tech.Param_overlay.t ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  unit
(** Checks that a shared {!t} is {!compile} of exactly this netlist and
    tech (physical equality) and overlay.
    @raise Invalid_argument prefixed with [who] otherwise. *)

val resolve :
  who:string ->
  ?compiled:t ->
  overlay:Halotis_tech.Param_overlay.t ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  t
(** [compiled] once {!check}ed, else a fresh {!compile}. *)

(** {1 Fanout cones}

    The static region a perturbation of one signal can reach: the
    substrate of incremental fault-campaign re-simulation
    ({!Iddm.start_cone}, {!Classic.start_cone}, {!Sim.Cone}). *)

type cone = {
  cone_victim : int;  (** the perturbed signal *)
  cone_gates : int array;
      (** member gates, ascending: the victim's driver (when it has
          one) plus the transitive fanout closure *)
  cone_signals : int array;
      (** member signals, ascending: the victim and every member
          gate's output *)
  cone_bnd_gate : int array;
      (** boundary feeds: member-gate pins whose driving signal is
          outside the cone, as parallel (gate, pin) arrays in
          ascending (gate, pin) order *)
  cone_bnd_pin : int array;
}

val mem_sorted : int array -> int -> bool
(** Membership in an ascending array, by binary search: how a cone's
    [cone_signals] answer "is this signal a member". *)

val check_cone : who:string -> t -> cone -> unit
(** @raise Invalid_argument prefixed with [who] when the cone's largest
    signal or gate id does not fit this circuit. *)

type cone_marks
(** The circuit-sized membership marks a cone walk needs, clear between
    walks: hold one per context to keep each walk O(cone). *)

val cone_marks : t -> cone_marks

val fanout_cone : marks:cone_marks -> t -> victim:int -> cone
(** A walk over the CSR fanout arrays that lists members as it marks
    them and clears the marks over the members afterwards, so its cost
    is the cone's, not the circuit's.  The closure property — a
    member gate's output is always a member signal — means events born
    inside the cone can never reach a non-member gate, so a
    cone-restricted run needs no runtime escape check; only the boundary
    feeds (whose activity the rest of the circuit fixes independently of
    the victim) cross into it.
    @raise Invalid_argument on an out-of-range signal id or marks of
    another netlist. *)
