(** The engines' deques of pending pool slots (per pin in {!Iddm}, per
    signal in {!Classic}), oldest at [head].  The live entries
    [buf.(head) .. buf.(tail - 1)] stay sorted by event time, so
    cancellation trims a suffix (newest first) and processing consumes
    the head, both O(1) and allocation-free; the engines read and write
    the fields directly on their hot paths. *)

type t = { mutable buf : int array; mutable head : int; mutable tail : int }

val create : unit -> t

val push : t -> int -> unit
(** Appends a slot, sliding the live entries to the front or growing
    the buffer when it is full. *)
