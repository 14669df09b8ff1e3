(** Combinational equivalence checking by exhaustive functional
    evaluation — small-scale but exact, enough for the generator zoo
    (adders, the two multiplier architectures) and for HNL round-trip
    confidence.

    Circuits are compared on the correspondence of their primary-output
    lists under a shared input ordering. *)

type verdict =
  | Equivalent
  | Counterexample of { inputs : bool list; outputs_a : bool list; outputs_b : bool list }
  | Incompatible of string  (** differing input/output counts, cycles *)

val check : Netlist.t -> Netlist.t -> verdict
(** [check a b] evaluates both circuits on every input vector.
    Returns [Incompatible] when interfaces differ, either circuit is
    cyclic, or it has more than 16 inputs (65536 vectors). *)

val pp_verdict : Format.formatter -> verdict -> unit
