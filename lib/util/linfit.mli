(** Small numeric fitting helpers used by the DDM calibration pass.

    The degradation law (paper eq. 1) linearises as
    [ln (1 - tp / tp0) = -(T - T0) / tau], so fitting [tau] and [T0]
    from electrical measurements reduces to ordinary least squares on
    transformed samples. *)

val linear_regression : (float * float) list -> (float * float) option
(** [linear_regression samples] fits [y = a * x + b] and returns
    [(a, b)], or [None] when there are fewer than two distinct
    abscissae. *)

val r_squared : (float * float) list -> a:float -> b:float -> float
(** [r_squared samples ~a ~b] is the coefficient of determination of
    the fit [y = a * x + b] on [samples] (1.0 = perfect). *)

val multiple_regression : ((float array * float) list) -> float array option
(** [multiple_regression rows] fits [y = c0 + c1*x1 + ... + cn*xn] by
    ordinary least squares; each row is [(\[|x1; ...; xn|\], y)].
    Returns [\[|c0; c1; ...; cn|\]], or [None] when rows are
    inconsistent in width, too few, or the normal equations are
    singular. *)
