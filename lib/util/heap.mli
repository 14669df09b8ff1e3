(** The event queue of the simulation engines: a min-heap over [float]
    keys with [int] payloads (engines store pool-slot indices).

    Keys sit in a flat [float array] (unboxed by the OCaml runtime),
    with parallel arrays for the tie-break stamps and the payloads,
    arranged as a 4-ary tree: sift operations touch only contiguous
    unboxed scalars, at half the depth of a binary heap, allocate
    nothing and carry no write barrier.  The calls themselves are not
    allocation-free: under the dev profile every module is compiled
    [-opaque], so a float that crosses a module boundary is boxed — the
    [~key] a caller computes, the [Some] of a [~rank], and the result of
    {!min_key}.  {!pop} allocates nothing.

    Entries pop in ascending key order; ties are broken by the explicit
    [~rank] when one is supplied at insertion, else by insertion order
    (FIFO).  Either way the order is a strict total order, which makes
    simulations deterministic; an {e intrinsic} rank (one derived from
    the entry's identity rather than from history) additionally makes
    the pop order reproducible across runs that insert the same entries
    in different orders — what cone re-simulation needs to replay a full
    run's tie resolution.  There is no entry removal: the engines cancel
    lazily, with tombstone flags on the payload. *)
type t

type handle = int
(** The entry's insertion stamp.  Valid only for the heap that
    returned it. *)

val create : ?capacity:int -> unit -> t
(** [create ()] is a fresh empty heap; [capacity] pre-sizes the
    arrays. *)

val length : t -> int
val is_empty : t -> bool

val insert : t -> key:float -> ?rank:int -> int -> handle
(** [rank] overrides the FIFO tie-break stamp; mixing ranked and
    unranked insertions in one heap interleaves the two rank spaces and
    is almost never what you want. *)

val min_key : t -> float
(** Key of the next entry to pop (a boxed float, see above).
    @raise Invalid_argument on an empty heap. *)

val pop : t -> int
(** Removes and returns the payload with the smallest key (FIFO among
    equal keys), without allocating.  Pair with {!min_key} when the
    key is also needed.
    @raise Invalid_argument on an empty heap. *)

val pop_min : t -> (float * int) option
(** Allocating convenience wrapper over {!min_key} + {!pop}. *)

val to_sorted_list : t -> (float * int) list
(** Live entries in pop order; O(n log n), for tests and debugging. *)
