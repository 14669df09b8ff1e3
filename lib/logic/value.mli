(** Four-valued logic used by the event-driven engines.

    [L0]/[L1] are the resolved rails, [X] is unknown (uninitialised or
    conflicting), [Z] is high impedance.  The IDDM engine works mostly
    with resolved values — an input only changes value when a waveform
    actually crosses its threshold — but [X] is needed at time zero and
    [Z] for undriven nets. *)

type t = L0 | L1 | X | Z

val equal : t -> t -> bool
val to_char : t -> char

val to_bool : t -> bool option
(** [to_bool v] is [Some] for the resolved rails, [None] for [X]/[Z]. *)

val lnot : t -> t
(** Logical negation; [X]/[Z] stay unknown. *)

val land_ : t -> t -> t
(** Conjunction with dominance: [L0] wins over unknowns. *)

val lor_ : t -> t -> t
(** Disjunction with dominance: [L1] wins over unknowns. *)

val lxor_ : t -> t -> t
(** Exclusive or; any unknown operand yields [X]. *)
