(** The reader a circuit file's name selects: a [.bench] path is
    ISCAS-85, its circuit named after the file's basename; any other
    path is HNL. *)

val reader : string -> string * (string -> (Netlist.t, Halotis_util.Diag.t) result)
(** [reader path] is [(recipe, parse)]: [parse] reads a source text as
    [path]'s format, and [recipe] ([hnl:] or [iscas:NAME]) names the
    format and circuit name, so that equal recipes turn equal texts
    into equal circuits. *)

val parse_file : string -> (Netlist.t, Halotis_util.Diag.t) result
(** [parse_file path] reads [path] and parses it with its {!reader}
    (see {!Halotis_util.Diag.parse_file}). *)
