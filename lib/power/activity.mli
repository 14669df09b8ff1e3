(** Switching-activity measurement.

    Table 1's point is that a conventional delay model lets glitches
    propagate that physically die, overestimating switching activity —
    and hence dynamic power — by tens of percent.  This module counts
    committed signal transitions of an IDDM result (CDM or DDM) under a
    common threshold so the comparison is apples-to-apples. *)

type report = {
  total_transitions : int;  (** edges summed over all signals *)
  per_signal : (string * int) array;  (** by signal, netlist order *)
  full_pulses : int;  (** complete pulses observed *)
  engine_label : string;
}

val of_iddm : Halotis_engine.Iddm.result -> report
(** Digitizes every waveform at VDD/2 and counts edges. *)

val overestimation_pct : reference:report -> candidate:report -> float
(** [100 * (candidate - reference) / reference]; the paper reports CDM
    overestimating DDM by 47 % and 52 % on its two sequences.
    0 when the reference saw no transitions. *)

val busiest : report -> n:int -> (string * int) list
(** The [n] most active signals, descending. *)
