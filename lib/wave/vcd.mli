(** Value-change-dump (VCD) export of digitized waveforms, so runs can
    be inspected in GTKWave or any standard viewer. *)

type signal_dump = {
  dump_name : string;
  dump_initial : bool;
  dump_edges : Digital.edge list;
  dump_x_from : float option;
      (** dump [x] from this instant on (a guardrail froze the signal
          or truncated the run); edges at or after it are dropped *)
}

val of_waveform : name:string -> vt:Halotis_util.Units.voltage -> Waveform.t -> signal_dump
(** Digitizes one waveform under threshold [vt]. *)

val write_file : ?comment:string -> string -> signal_dump list -> unit
(** [write_file path dumps] writes a complete VCD document, edge times
    rounded to whole picoseconds, under one module [halotis].
    [comment] becomes a [$comment ... $end] header line — how partial
    dumps from a budget-stopped run are marked. *)
