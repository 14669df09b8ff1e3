(** Reader for the subset of VCD that {!Vcd.write_file} writes (and most
    digital tools emit for scalar wires): timescale, 1-bit [$var]
    declarations, [$dumpvars] initial values, and [#time] change
    records.  Vector variables and real values are rejected. *)

type signal = {
  rd_name : string;
  rd_initial : bool;
  rd_edges : Digital.edge list;  (** times in ps, chronological *)
}

type t = { timescale_ps : float; signals : signal list }

val parse_file : string -> (t, Halotis_util.Diag.t) result
(** A malformed file is a [vcd-parse] diagnostic at its line (see
    {!Halotis_util.Diag.parse_file}). *)

val find : t -> string -> signal option
