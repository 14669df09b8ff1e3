(** Tolerant floating-point comparisons.

    Event times are produced by chains of arithmetic on ramp slopes;
    comparing them for strict equality is meaningless.  All simulator
    code that needs "same instant" or "at least as late" semantics goes
    through this module so the tolerance is defined exactly once: the
    [~eps]-less variants use [1e-6], in the unit of the compared quantity
    (picoseconds for times). *)

val equal : ?eps:float -> float -> float -> bool
(** [equal a b] is true when [|a - b| <= eps]. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] bounds [x] into [\[lo, hi\]]. *)

val is_finite : float -> bool
(** [is_finite x] is true when [x] is neither NaN nor infinite. *)
