(** Two-dimensional lookup tables with bilinear interpolation — the
    NLDM representation industrial libraries use for cell delay and
    output-transition data (indexed here by input slope and output
    load). *)

type t

val make : index1:float array -> index2:float array -> values:float array array -> t
(** [make ~index1 ~index2 ~values] builds a table; [values.(i).(j)]
    corresponds to [(index1.(i), index2.(j))].
    @raise Invalid_argument when an index is empty or not strictly
    increasing, or the value matrix does not match the index sizes. *)

val lookup : t -> float -> float -> float
(** [lookup t x1 x2] interpolates bilinearly inside the grid and
    extrapolates linearly from the border cells outside it. *)

val values : t -> float array array

val monotone : tolerance:float -> t -> bool
(** Whether values are non-decreasing in output load ([index_2], every
    input slope held fixed), allowing dips up to [tolerance].  Delay
    and transition tables should be; violations usually mean corrupted
    characterisation data. *)

val sample_points : t -> (float * float * float) list
(** All grid points as [(x1, x2, value)] — fitting input. *)
