(** A transition: the linear-ramp stimulus primitive of HALOTIS.

    The paper approximates every signal change by a linear curve
    determined by the instant it begins ([start], the paper's [t0]) and
    its rise or fall time ([slope_time], the paper's tau_x): the ramp
    moves from wherever the signal is towards the corresponding rail
    (VDD when rising, 0 when falling) at rate [vdd / slope_time].

    A transition says nothing about its starting voltage — that is
    waveform context (see {!Waveform}); a heavily degraded pulse is a
    ramp that gets interrupted before reaching the rail. *)

type polarity = Rising | Falling

type t = {
  start : Halotis_util.Units.time;  (** the paper's [t0], ps *)
  slope_time : Halotis_util.Units.time;
      (** the paper's tau: time a full 0→VDD swing would take; > 0 *)
  polarity : polarity;
}

val make :
  start:Halotis_util.Units.time ->
  slope_time:Halotis_util.Units.time ->
  polarity:polarity ->
  t
(** @raise Invalid_argument when [slope_time <= 0] or [start] is not
    finite. *)

val opposite : polarity -> polarity
val polarity_to_string : polarity -> string
val equal_polarity : polarity -> polarity -> bool

val target : vdd:Halotis_util.Units.voltage -> t -> Halotis_util.Units.voltage
(** The rail the ramp heads to: [vdd] when rising, [0] when falling. *)

val value_at :
  vdd:Halotis_util.Units.voltage ->
  v_start:Halotis_util.Units.voltage ->
  t ->
  Halotis_util.Units.time ->
  Halotis_util.Units.voltage
(** [value_at ~vdd ~v_start tr t] is the ramp voltage at time
    [t >= tr.start], starting from [v_start] and saturating at the
    target rail. *)

