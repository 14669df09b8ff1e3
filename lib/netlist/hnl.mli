(** HNL — the HALOTIS netlist language.

    A tiny line-oriented structural format, enough to round-trip every
    circuit in this repository:

    {v
    # comment
    circuit mult4x4
    input a0 a1 b0 b1
    output s0 s1 s2 s3
    gate g1 nand2 n1 a0 b0            # gate NAME KIND OUT IN1 IN2 ...
    gate g0 and2  n2 a0 const0        # const0/const1 are tie cells
    gate g2 inv   s0 n1 vt0=1.5       # per-pin threshold override
    gate g3 inv   s1 n1 load=12.5     # extra output load in fF
    end
    v}

    Wires are implicit: any identifier that is not declared as input or
    tie cell is an internal signal.  Attributes accepted on a gate line:
    [vt<pin>=<volts>] and [load=<fF>]. *)

type error = Halotis_util.Diag.t = {
  severity : Halotis_util.Diag.severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

val parse_string : string -> (Netlist.t, error) result
(** Parses a full HNL document.  An error is a [netlist-parse]
    diagnostic at its line, or with no line for an empty document or a
    circuit that does not elaborate. *)

val to_string : Netlist.t -> string
(** Prints a circuit as HNL; [parse_string (to_string c)] reproduces an
    isomorphic circuit. *)

