(** Event-count bookkeeping — the raw material of the paper's Table 1.

    "Events" are threshold crossings scheduled on gate inputs;
    "filtered events" are pending events cancelled by the Fig. 4 rule
    when a newer transition truncates or annuls the waveform they were
    computed from. *)

type t = {
  mutable events_scheduled : int;
  mutable events_processed : int;
  mutable events_filtered : int;  (** cancellations — Table 1's "Filtered events" *)
  mutable stale_skipped : int;
      (** tombstoned events discarded when the queue reached them — the
          lazy-cancellation kernel marks a cancelled event dead in place
          instead of restructuring the heap, and reclaims it here.  In
          an {!Iddm} run that drains its queue,
          [stale_skipped = events_filtered]; purely diagnostic *)
  mutable transitions_emitted : int;  (** output transitions appended to waveforms *)
  mutable transitions_annulled : int;  (** stored transitions wiped by later ones *)
  mutable noop_evaluations : int;  (** gate evaluations that left the output unchanged *)
  mutable stopped_by : Halotis_guard.Stop.t;
      (** why the run ended; anything other than [Completed] means the
          counters (and the waveforms they describe) are partial *)
}

val create : unit -> t
val copy : t -> t

val merge : t -> t -> unit
(** [merge into t] accumulates [t]'s counters into [into] — the
    aggregation primitive of fault-injection campaigns, which sum event
    counts across many runs.  [into.stopped_by] keeps its value unless
    it is [Completed], in which case it takes [t]'s (so an aggregate is
    marked partial as soon as any contributing run was). *)

val diff : t -> t -> t
(** [diff a b] is a fresh record of per-counter differences [a - b]:
    what an injected run cost {e beyond} its baseline.  Counters may be
    negative when [b] outgrew [a].  [stopped_by] is taken from [a]. *)

val pp : Format.formatter -> t -> unit
(** Appends ["; stopped: <reason>"] only when the run did not
    complete. *)

val to_json : t -> Halotis_util.Json.t
(** Counters as a JSON object (field order matches the record); a
    [stopped_by] member is present only when the run did not complete.
    Shared by the simulate [--json] output and fault reports. *)
