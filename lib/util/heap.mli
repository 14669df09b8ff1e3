(** The event queue of the simulation engines: a min-heap over [float]
    keys with [int] payloads (engines store pool-slot indices).

    Keys sit in a flat [float array] (unboxed by the OCaml runtime),
    with parallel arrays for the tie-break ranks and the payloads,
    arranged as a 4-ary tree: sift operations touch only contiguous
    unboxed scalars, at half the depth of a binary heap, allocate
    nothing and carry no write barrier.  The calls themselves are not
    allocation-free: under the dev profile every module is compiled
    [-opaque], so a float that crosses a module boundary is boxed — the
    [~key] a caller computes.  {!top} and {!pop} allocate nothing; a
    caller that needs the minimum's key keeps it with the payload (the
    engines' slot pool does).

    Entries pop in ascending key order, equal keys in ascending
    [~rank].  The engines derive ranks from an entry's identity rather
    than from history (an {e intrinsic} rank), so the pop order does not
    depend on the order of insertion: a cone re-simulation that queues
    the same entries in a different order replays the full run's tie
    resolution.  Entries equal in both key and rank pop in an
    unspecified order.  There is no entry removal: the engines cancel
    lazily, with tombstone flags on the payload. *)
type t

val create : unit -> t
(** [create ()] is a fresh empty heap, pre-sized for 64 entries. *)

val length : t -> int
val is_empty : t -> bool

val insert : t -> key:float -> rank:int -> int -> unit
(** [insert h ~key ~rank v] queues payload [v]; [rank] orders it among
    entries of equal [key]. *)

val top : t -> int
(** Payload of the next entry to pop, left queued; allocates nothing.
    @raise Invalid_argument on an empty heap. *)

val pop : t -> int
(** Removes and returns the payload with the smallest (key, rank),
    without allocating.
    @raise Invalid_argument on an empty heap. *)
