(** Floating-point range helpers. *)

val clamp : lo:float -> hi:float -> float -> float
(** [clamp ~lo ~hi x] bounds [x] into [\[lo, hi\]]. *)

val is_finite : float -> bool
(** [is_finite x] is true when [x] is neither NaN nor infinite. *)
