(** The event kernel both engines run on, {!Iddm} and {!Classic}: the
    event queue, one recycled structure-of-arrays slot pool with lazy
    cancellation, and the engine-independent control of a resumable
    run (the guardrail limits folded once at its start, why it stopped,
    how far it got, whether any queued event can still run).

    An event is a pool slot, passed around as a small int: its instant,
    a tombstone byte, and a fixed payload of two ints, one float and
    one flag byte whose meaning each engine fixes.  An engine queues a
    slot with {!alloc}, cancels one by setting its tombstone in place,
    and runs its main loop on {!pop} and {!admit}; what an event does
    stays in the engine.  A slot sits in the queue exactly once, so
    recycling it when it pops is single-free by construction.  Slot
    numbers never reach the pop order, which is (instant, rank), so
    reuse is unobservable. *)

type t = private {
  lim : Halotis_guard.Budget.limits;
  stats : Stats.t;  (** the run's counters; {!pop} counts [stale_skipped] *)
  mutable stop : Halotis_guard.Stop.t;  (** [Completed] until something stops the run *)
  mutable end_time : Halotis_util.Units.time;  (** latest processed instant *)
  mutable now : Halotis_util.Units.time;
      (** the instant of the slot {!pop} last returned, boxed once
          there: an engine that passes it on allocates nothing more *)
  mutable finished : bool;
      (** no queued event can ever be processed again (drained, past
          the horizon, or stopped); {!revive} may clear the drained
          case, a non-[Completed] stop is final *)
  queue : Halotis_util.Heap.t;  (** slots, keyed by instant and ranked *)
  mutable at : float array;  (** slot -> event instant, its queue key *)
  mutable dead : Bytes.t;
      (** slot -> tombstone: an engine cancels a queued slot by setting
          it to ['\001'], and {!pop} discards it *)
  mutable int0 : int array;  (** slot -> payload *)
  mutable int1 : int array;  (** slot -> payload *)
  mutable real : float array;  (** slot -> payload *)
  mutable flag : Bytes.t;  (** slot -> payload *)
  mutable free : int array;  (** the pool's free stack *)
  mutable free_top : int;
}

val create :
  ?pool:t ->
  Halotis_guard.Budget.t ->
  t_stop:Halotis_util.Units.time option ->
  stats:Stats.t ->
  t
(** Arms a run as {!Halotis_guard.Budget.limits} does.  [pool]: an
    earlier run's kernel, whose queue is drained (a run cut short by
    its horizon or a guardrail leaves events queued) and whose queue
    and pool the new run takes over; the earlier run must not be
    advanced again. *)

val alloc : t -> key:Halotis_util.Units.time -> rank:int -> int
(** A fresh live slot at instant [key], queued at rank [rank]; the
    caller fills in its payload. *)

val pop : t -> upto:Halotis_util.Units.time -> int
(** The next live slot if the loop may process it now, else [-1].  The
    queue minimum is inspected before anything is popped, so pausing
    at [upto] leaves the queue exactly as a one-shot run has it at
    that point.  A drained queue finishes the run; a minimum past the
    horizon halts it with the horizon's stop reason.  Tombstoned slots
    on the way are recycled and counted in [stale_skipped].  The
    returned slot is recycled too: its fields stay readable until the
    next {!alloc}; its instant is [now]. *)

val halt : t -> Halotis_guard.Stop.t -> unit
(** Records the stop reason and finishes the run; used for guardrail
    and watchdog stops. *)

val admit : t -> emitted:int -> bool
(** The pre-event guardrails, checked before the live slot just popped
    is processed: [emitted] committed transitions against the
    transition cap, then the budget monitor at the queue's occupancy.
    [true] advances [end_time] to [now]; [false] means the run has
    been halted and the event must be dropped. *)

val reached : t -> unit
(** Advances [end_time] to [now] for a slot processed without {!admit}
    (an IDDM injection splice). *)

val revive : t -> unit
(** Fresh stimulus wakes a drained run whose queue is non-empty again. *)

val injection_rank : int -> int
(** The heap tie-break rank of a run's [k]-th injection entry (an IDDM
    splice, a classic toggle): below every pin slot and signal id,
    above every classic input switch (those rank from [min_int]), and
    in registration order among injections.  Both engines rank by
    identity, not by history, so equal-instant entries pop alike
    however a run built its queue. *)
