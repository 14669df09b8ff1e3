(** The engine-independent control of a resumable run, shared by
    {!Iddm} and {!Classic}: the guardrail limits folded once at its
    start, why it stopped, how far it got, whether any queued event
    can still run, and the queue rank of injections.  Each engine's
    main loop asks {!next} before it pops its queue and {!admit}
    before it processes a live event; what an event does stays in the
    engine. *)

type t = {
  lim : Halotis_guard.Budget.limits;
  mutable stop : Halotis_guard.Stop.t;  (** [Completed] until something stops the run *)
  mutable end_time : Halotis_util.Units.time;  (** latest processed instant *)
  mutable finished : bool;
      (** no queued event can ever be processed again (drained, past
          the horizon, or stopped); {!revive} may clear the drained
          case, a non-[Completed] stop is final *)
}

val create :
  Halotis_guard.Budget.t -> t_stop:Halotis_util.Units.time option -> max_events:int -> t
(** Arms a run as {!Halotis_guard.Budget.limits} does. *)

val halt : t -> Halotis_guard.Stop.t -> unit
(** Records the stop reason and finishes the run; used for guardrail
    and watchdog stops. *)

val next : t -> Halotis_util.Heap.t -> upto:Halotis_util.Units.time -> float
(** The queue minimum's instant if the loop may pop it now, else [nan].
    The minimum is inspected before anything is popped, so pausing at
    [upto] leaves the queue exactly as a one-shot run has it at that
    point.  A drained queue finishes the run; a minimum past the
    horizon halts it with the horizon's stop reason.  (A float rather
    than an option, so the per-event path allocates nothing new.) *)

val admit : t -> at:Halotis_util.Units.time -> emitted:int -> queue:int -> bool
(** The pre-event guardrails, checked before a live event at [at] is
    processed: [emitted] committed transitions against the transition
    cap, then the budget monitor at queue occupancy [queue].  [true]
    advances [end_time] to [at]; [false] means the run has been halted
    and the event must be dropped. *)

val reached : t -> Halotis_util.Units.time -> unit
(** Advances [end_time] to the instant of an event processed without
    {!admit} (an IDDM injection splice). *)

val revive : t -> Halotis_util.Heap.t -> unit
(** Fresh stimulus wakes a drained run whose queue is non-empty again. *)

val injection_rank : int -> int
(** The heap tie-break rank of a run's [k]-th injection entry (an IDDM
    splice, a classic toggle): below every pin slot and signal id,
    above every classic input switch (those rank from [min_int]), and
    in registration order among injections.  Both engines rank by
    identity, not by history, so equal-instant entries pop alike
    however a run built its queue. *)
