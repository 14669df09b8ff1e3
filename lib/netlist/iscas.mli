(** Reader for the ISCAS-85 ".bench" netlist format, the lingua franca
    of academic gate-level benchmarks:

    {v
    # c17
    INPUT(G1)
    INPUT(G2)
    OUTPUT(G22)
    G10 = NAND(G1, G3)
    G22 = NAND(G10, G16)
    G9 = NOT(G5)
    G8 = BUFF(G2)
    v}

    Supported functions: AND, NAND, OR, NOR, XOR, XNOR (any arity >= 2),
    NOT and BUFF (arity 1).  Names are case-insensitive for functions
    and case-sensitive for signals. *)

val parse_string : ?name:string -> string -> (Netlist.t, Halotis_util.Diag.t) result
(** [parse_string ~name text] parses a .bench document; [name] is the
    circuit name (default ["bench"]).  An error is an [iscas-parse]
    diagnostic at its line, or with no line for a circuit that does not
    elaborate. *)

val c17 : Netlist.t Lazy.t
(** The ISCAS-85 c17 benchmark, embedded. *)

val to_string : Netlist.t -> (string, string) result
(** Renders a circuit in .bench syntax.  Fails with a message when the
    circuit uses constructs the format cannot express (tie cells,
    AOI/OAI/MUX complex gates). *)
