(** Digital abstraction of waveforms: edges, pulses and runt analysis.

    The IDDM story is about which pulses survive; this module provides
    the vocabulary to measure that on a finished waveform. *)

type edge = { at : Halotis_util.Units.time; polarity : Transition.polarity }

val edges :
  Waveform.t -> vt:Halotis_util.Units.voltage -> edge list
(** Threshold crossings in time order (see {!Waveform.crossings}). *)

val edge_count : Waveform.t -> vt:Halotis_util.Units.voltage -> int

val final_level : Waveform.t -> vt:Halotis_util.Units.voltage -> bool
(** Logic level implied by the last edge (or the initial voltage). *)

val level_at :
  Waveform.t -> vt:Halotis_util.Units.voltage -> Halotis_util.Units.time -> bool
(** Logic level at a given time under threshold [vt]. *)

type pulse = {
  t_rise : Halotis_util.Units.time;
  t_fall : Halotis_util.Units.time;
  width : Halotis_util.Units.time;
  positive : bool;  (** true for a 0-1-0 pulse, false for 1-0-1 *)
}

val pulses : Waveform.t -> vt:Halotis_util.Units.voltage -> pulse list
(** Complete pulses, in time order: edges pair up disjointly
    ((e1,e2), (e3,e4), ...), so an excursion away from the settled
    level and back counts once and the rest level in between does not
    count as a pulse of the opposite polarity. *)

type runt = {
  peak : Halotis_util.Units.voltage;  (** extreme voltage the excursion reaches *)
  t_start : Halotis_util.Units.time;
  t_end : Halotis_util.Units.time;
  upward : bool;
}

val runts : Waveform.t -> runt list
(** Excursions that reverse before reaching the opposite rail —
    degraded pulses in the paper's sense.  An excursion is every
    maximal run of same-polarity segments; it is a runt when its peak
    stays strictly inside the rails. *)

val pp_edge : Format.formatter -> edge -> unit
