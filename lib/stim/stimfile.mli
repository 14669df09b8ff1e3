(** HSV — the HALOTIS stimulus-vector file format.

    A line-oriented companion to HNL:

    {v
    # stimulus for eq2
    slope 100                  # input ramp slope in ps (default 100)
    input a0 0                 # constant low
    input a1 1                 # constant high
    input b0 0 1@3000 0@6000   # initial 0, rise at 3 ns, fall at 6 ns
    v}

    Levels are [0]/[1]; change instants are in picoseconds. *)

type error = Halotis_util.Diag.t = {
  severity : Halotis_util.Diag.severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

type t = {
  slope : Halotis_util.Units.time;
  entries : (string * Halotis_engine.Drive.t) list;  (** in file order *)
  raw_changes : (string * (float * bool) list) list;
      (** per entry, the [(time, level)] pairs exactly as written —
          {!Halotis_engine.Drive.of_levels} sorts and deduplicates, so
          ordering faults are only visible here (see [Halotis_lint]) *)
}

val parse_string : string -> (t, error) result
(** An error is a [stim-parse] diagnostic at its line. *)

val parse_file : string -> (t, error) result
(** See {!Halotis_util.Diag.parse_file}. *)

val to_string : t -> string
(** Prints a document that {!parse_string} reads back equivalently. *)

val bind :
  t ->
  Halotis_netlist.Netlist.t ->
  ((Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list, string) result
(** Resolves entry names against a circuit's primary inputs.  Errors on
    unknown names or entries naming non-input signals; inputs without
    an entry default to constant 0 (they are simply absent from the
    returned list). *)
