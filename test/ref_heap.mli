(** Binary min-heap with removable entries and deterministic ordering:
    the reference queue of the equivalence suite's reference kernels.

    Every insertion returns a handle that supports O(log n) removal —
    what Fig. 4's "delete Ej-1" cancellation needs when implemented
    eagerly.  The simulation engines use {!Halotis_util.Heap} instead,
    which stores keys unboxed and cancels lazily (tombstone flags); the
    two pop the same order for the same ranks.  The engines' heap has
    no FIFO mode; this one keeps it for the classic reference kernel's
    first-in first-out variant, the tie order the classic engine kept
    before it ranked its entries.

    Entries are ordered by their [float] key; ties are broken by the
    explicit [~rank] when one is supplied at insertion, else by
    insertion order (FIFO).  Either way the order is a strict total
    order, which makes simulations deterministic; an {e intrinsic} rank
    (one derived from the entry's identity rather than from history)
    additionally makes the pop order reproducible across runs that
    insert the same entries in different orders — what cone
    re-simulation needs to replay a full run's tie resolution. *)

type 'a t
(** A heap holding payloads of type ['a]. *)

type 'a handle
(** A handle onto an inserted entry, usable to remove it later. *)

val create : unit -> 'a t
(** [create ()] is a fresh empty heap. *)

val length : 'a t -> int
(** Number of live entries. *)

val is_empty : 'a t -> bool
(** [is_empty h] is [length h = 0]. *)

val insert : 'a t -> key:float -> ?rank:int -> 'a -> 'a handle
(** [insert h ~key v] adds [v] with priority [key] and returns its
    handle.  [rank] overrides the FIFO tie-break stamp; mixing ranked
    and unranked insertions in one heap interleaves the two rank
    spaces and is almost never what you want. *)

val pop_min : 'a t -> (float * 'a) option
(** [pop_min h] removes and returns the entry with the smallest key
    (FIFO among equal keys), or [None] if the heap is empty. *)

val peek_min : 'a t -> (float * 'a) option
(** [peek_min h] is like {!pop_min} without removing the entry. *)

val remove : 'a t -> 'a handle -> bool
(** [remove h hd] deletes the entry behind [hd].  Returns [false] when
    the entry was already popped or removed (removal is idempotent). *)

val mem : 'a t -> 'a handle -> bool
(** [mem h hd] is true while the entry behind [hd] is still queued. *)

val key_of : 'a t -> 'a handle -> float option
(** [key_of h hd] is the key of a still-queued entry. *)

val to_sorted_list : 'a t -> (float * 'a) list
(** [to_sorted_list h] drains nothing: returns the live entries in pop
    order.  O(n log n); intended for tests and debugging. *)
