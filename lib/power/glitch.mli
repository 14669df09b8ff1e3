(** Glitch analysis: which pulses are functional transitions and which
    are hazards, and how wide they are.

    Heuristic: on a vectored workload with period [period], the circuit
    is meant to settle to one value per vector, so within one period a
    signal's {e last} level change is functional and every earlier
    complete pulse is a glitch.  Degradation shifts the pulse-width
    histogram left and empties it; a conventional model keeps it
    full — the mechanism behind Table 1. *)

type histogram = {
  counts : int array;  (** bucket [i] counts pulses in [[i*100, (i+1)*100)] ps *)
  overflow : int;  (** pulses of 1000 ps and wider *)
}

val pulse_width_histogram :
  vt:Halotis_util.Units.voltage -> Halotis_wave.Waveform.t array -> histogram
(** Histogram of complete pulse widths over a set of waveforms: ten
    100 ps buckets. *)

val pp_histogram : Format.formatter -> histogram -> unit

type glitch_report = {
  functional_edges : int;  (** final settling edge of each signal-period *)
  glitch_pulses : int;  (** complete pulses before settling *)
  glitch_energy_fraction : float;
      (** fraction of switching edges that belong to glitches *)
}

val classify :
  period:Halotis_util.Units.time ->
  vt:Halotis_util.Units.voltage ->
  Halotis_wave.Waveform.t array ->
  glitch_report
(** Splits each signal's activity per vector period into the functional
    settling edge and the hazard pulses before it. *)
