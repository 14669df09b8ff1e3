(** Resource budgets for a simulation run.

    A budget bounds how much work a run may do before it is stopped
    gracefully.  All limits are optional; {!unlimited} disables them
    all.  The hot loop pays one countdown decrement and one branch per
    event via {!Monitor.hit}; the expensive checks (wall clock, queue
    occupancy) only run every [interval] events.  The event budget is
    exact: the monitor refills the countdown with
    [min interval (remaining events)], so a run with
    [max_events = Some n] processes exactly [n] events before
    stopping. *)

type t = {
  max_events : int option;  (** processed (non-stale) events *)
  max_wall_s : float option;  (** wall-clock seconds *)
  max_queue : int option;  (** event-queue occupancy (live + stale slots) *)
  max_sim_time : float option;  (** simulated time horizon, ps *)
  max_transitions : int option;
      (** committed output transitions across all waveform stores — the
          memory cap: per-signal transition arrays grow with every
          accepted ramp even when the event-queue budget holds, so a
          long-lived session bounds them here.  Enforced by the engines
          themselves (the monitor never sees transition counts): once
          the store holds this many committed transitions, the next
          live gate event stops the run with
          {!Stop.Transition_cap} *)
}

val unlimited : t

val make :
  ?max_events:int ->
  ?max_wall_s:float ->
  ?max_queue:int ->
  ?max_sim_time:float ->
  ?max_transitions:int ->
  unit ->
  t

val is_unlimited : t -> bool

(** The per-run checking state.  One monitor per engine run; not
    reusable across runs (it owns the wall-clock start time and the
    event countdown). *)
module Monitor : sig
  type budget = t
  type t

  val create : ?interval:int -> budget -> t
  (** [interval] is how many events pass between slow-path checks
      (default 1024).  The event budget stays exact regardless of
      [interval]. *)

  val hit : t -> queue:int -> Stop.t option
  (** Call once per live event, {e before} processing it.  [queue] is
      the current event-queue occupancy (only inspected on the slow
      path, so passing a cheap upper bound such as heap length is
      fine).  [None] means the event may be processed; [Some reason]
      means the budget disallows it and the caller must stop — exactly
      [max_events] events get processed under an event budget.  After a
      trip, further calls are unspecified. *)

  val events_seen : t -> int
  (** Events accounted so far (exact, including the countdown in
      flight). *)
end

(** What one engine run enforces, folded once at its start. *)
type limits = {
  horizon : float;
      (** [t_stop] or [max_sim_time], whichever is earlier; [infinity]
          when neither is set *)
  horizon_stop : Stop.t;
      (** why passing [horizon] stops the run: [Completed] when [t_stop]
          binds, [Sim_time] when [max_sim_time] does *)
  transition_cap : int;  (** [max_transitions]; [max_int] when unset *)
  monitor : Monitor.t;  (** [max_events] folded with the engine's own cap *)
}

val limits : t -> t_stop:float option -> max_events:int -> limits
(** Arms one run of horizon [t_stop] and engine event cap
    [max_events]. *)
