(** Piecewise-linear signal waveform built from an ordered list of
    {!Transition.t}s.

    This implements the paper's list-type transition store with the
    crucial IDDM property: appending a transition that starts {e before}
    previously stored transitions {e annuls} them — a degraded pulse
    that collapses to nothing leaves no trace, and the engine cancels
    the events those annulled transitions had generated (Fig. 4's
    "delete Ej-1" branch).

    Each stored segment records the voltage the ramp starts from, so
    runt pulses (ramps truncated before the rail) are represented
    exactly. *)

type segment = {
  transition : Transition.t;
  v_start : Halotis_util.Units.voltage;  (** waveform value at [transition.start] *)
}

type t

val create : ?initial:Halotis_util.Units.voltage -> vdd:Halotis_util.Units.voltage -> unit -> t
(** [create ~vdd ()] starts a flat waveform at [initial] (default 0 V). *)

val reset : t -> initial:Halotis_util.Units.voltage -> vdd:Halotis_util.Units.voltage -> unit
(** [reset w ~initial ~vdd] makes [w] what [create ~initial ~vdd ()]
    returns, a flat waveform with no transition, but keeps its storage:
    how a reused run workspace starts a run without allocating.
    @raise Invalid_argument when [vdd] is not positive. *)

val copy : t -> t
(** An {!equal} waveform with its own storage, sized to its live
    segments exactly: what a run hands back when the waveform it
    simulated in is reused by the next run. *)

val vdd : t -> Halotis_util.Units.voltage
val initial : t -> Halotis_util.Units.voltage

val append : t -> Transition.t -> unit
(** Adds a transition, truncating/annulling as described above:
    {!append_ramp} on the record's fields. *)

type appended = private int
(** What {!append_ramp} did, packed into an immediate: read it with
    {!accepted} and {!annulled}. *)

val append_ramp :
  t ->
  start:Halotis_util.Units.time ->
  slope_time:Halotis_util.Units.time ->
  rising:bool ->
  appended
(** {!append} on the ramp's scalars, for the event kernel: it builds no
    {!Transition.t}, and tells what the append did.
    @raise Invalid_argument where {!Transition.make} would: [start] not
    finite, or [slope_time] not a positive finite number. *)

val accepted : appended -> bool
(** [false] when the new ramp was a no-op (the waveform value at its
    start already sits at the target rail), in which case it was not
    stored. *)

val annulled : appended -> int
(** How many stored transitions the append annulled because they start
    at or after the new one. *)

val segment_count : t -> int

val segments : t -> segment list
(** Oldest first. *)

val get_segment : t -> int -> segment
(** [get_segment w i] is the [i]-th live segment (chronological,
    0-based).  O(1).
    @raise Invalid_argument when [i] is out of bounds. *)

val assign_prefix : t -> src:t -> len:int -> unit
(** [assign_prefix w ~src ~len] makes [w] hold the first [len] live
    segments of [src], reusing [w]'s storage.  Appending the
    transitions [src] holds beyond [len] ({!transitions_from}) in order
    then rebuilds [src] exactly: each recomputes the same start voltage.
    @raise Invalid_argument when [len] is out of bounds or the two
    differ in initial value or rail. *)

val common_prefix : t -> t -> int
(** The number of leading segments two waveforms have in common (equal
    start, slope, start voltage and polarity). *)

val equal : t -> t -> bool
(** Same initial value and the same live segments. *)

val transitions_from : t -> int -> Transition.t list
(** The live transitions from index [i] on, oldest first. *)

val last_start_or_nan : t -> Halotis_util.Units.time
(** Start time of the most recent live transition — the gate-state
    clock the degradation model measures its [T] against — or
    [Float.nan] (never a legitimate start instant) when the waveform
    has no live transition.  The result is
    still a boxed float: under the dev profile, a float that crosses a
    module boundary is boxed. *)

val value_at : t -> Halotis_util.Units.time -> Halotis_util.Units.voltage
(** Waveform voltage at any time (flat before the first transition,
    saturated after the last). *)

val last_crossing : t -> vt:Halotis_util.Units.voltage -> Halotis_util.Units.time
(** The instant the most recent ramp crosses [vt].  This is the
    event-generation primitive: the last segment extends to its rail,
    so the crossing is definitive until a newer transition truncates
    it.  [Float.nan] (never a legitimate crossing instant) when the last
    ramp does not cross [vt] or the waveform is empty.  It reads the ramp from the segment store
    without boxing it; only [vt] and the result are boxed floats. *)

val crossings :
  t -> vt:Halotis_util.Units.voltage -> (Halotis_util.Units.time * Transition.polarity) list
(** Every crossing of level [vt] over the whole waveform, in time
    order: the digital abstraction of the analog-ish record.  Runt
    segments that never reach [vt] contribute nothing. *)

val crossings_with_transitions :
  t -> vt:Halotis_util.Units.voltage ->
  (Halotis_util.Units.time * Transition.t) list
(** Like {!crossings} but pairs each crossing with the transition whose
    ramp produced it (the crossing polarity is the transition's).  Used
    to seed events from primary-input waveforms, where the event must
    carry the causing ramp's slope. *)
