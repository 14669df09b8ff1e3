(** The event queue of the simulation engines: a min-heap over [float]
    keys with [int] payloads (engines store pool-slot indices).

    Keys sit in a flat [float array] (unboxed by the OCaml runtime),
    with parallel arrays for the tie-break ranks and the payloads,
    arranged as a 4-ary tree: sift operations touch only contiguous
    unboxed scalars, at half the depth of a binary heap, allocate
    nothing and carry no write barrier.  The calls themselves are not
    allocation-free: under the dev profile every module is compiled
    [-opaque], so a float that crosses a module boundary is boxed — the
    [~key] a caller computes and the result of {!min_key}.  {!pop}
    allocates nothing.

    Entries pop in ascending key order, equal keys in ascending
    [~rank].  The engines derive ranks from an entry's identity rather
    than from history (an {e intrinsic} rank), so the pop order does not
    depend on the order of insertion: a cone re-simulation that queues
    the same entries in a different order replays the full run's tie
    resolution.  Entries equal in both key and rank pop in an
    unspecified order.  There is no entry removal: the engines cancel
    lazily, with tombstone flags on the payload. *)
type t

val create : ?capacity:int -> unit -> t
(** [create ()] is a fresh empty heap; [capacity] pre-sizes the
    arrays. *)

val length : t -> int
val is_empty : t -> bool

val insert : t -> key:float -> rank:int -> int -> unit
(** [insert h ~key ~rank v] queues payload [v]; [rank] orders it among
    entries of equal [key]. *)

val min_key : t -> float
(** Key of the next entry to pop (a boxed float, see above).
    @raise Invalid_argument on an empty heap. *)

val pop : t -> int
(** Removes and returns the payload with the smallest (key, rank),
    without allocating.  Pair with {!min_key} when the key is also
    needed.
    @raise Invalid_argument on an empty heap. *)

val pop_min : t -> (float * int) option
(** Allocating convenience wrapper over {!min_key} + {!pop}. *)

val to_sorted_list : t -> (float * int) list
(** Live entries in pop order; O(n log n), for tests and debugging. *)
