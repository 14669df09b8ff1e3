(** Deterministic splittable pseudo-random generator (splitmix64).

    Benchmarks and property tests need reproducible random workloads
    that do not depend on the global [Random] state; this PRNG is
    seeded explicitly and can be split into independent streams. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator from a 63-bit seed. *)


val int : t -> bound:int -> int
(** [int g ~bound] is uniform in [\[0, bound)], [bound > 0]. *)

val float : t -> bound:float -> float
(** [float g ~bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** A fair coin flip. *)
