(** Technology description: every per-cell number the delay models and
    the analog substrate need.

    The conventional part of the delay model (the paper's [tp0], taken
    from a "conventional delay model" [refs 1, 2]) is a linear
    load/slope macromodel:

    [tp0 = d0 + d_load * CL + d_slope * tau_in]
    [tau_out = s0 + s_load * CL]

    The degradation part follows the paper's eqs. 2–3:

    [tau = (ddm_a + ddm_b * CL) / VDD]
    [T0  = (1/2 - ddm_c / VDD) * tau_in]

    with separate parameter sets for rising and falling output edges,
    and a per-pin factor modelling the input-position dependence the
    paper mentions (the "i" subscripts of eqs. 2–3). *)

type edge_params = {
  d0 : float;  (** intrinsic delay, ps *)
  d_load : float;  (** load sensitivity, ps/fF *)
  d_slope : float;  (** input-slope sensitivity, dimensionless *)
  s0 : float;  (** intrinsic output slope, ps *)
  s_load : float;  (** output-slope load sensitivity, ps/fF *)
  ddm_a : float;  (** eq. 2 A, V.ps *)
  ddm_b : float;  (** eq. 2 B, V.ps/fF *)
  ddm_c : float;  (** eq. 3 C, V *)
}

type gate_tech = {
  rise : edge_params;  (** parameters for an output {e rising} edge *)
  fall : edge_params;
  input_cap : float;  (** input pin capacitance, fF *)
  default_vt : float;  (** default input threshold, V *)
  pin_factor : int -> float;
      (** multiplicative delay factor of input pin [i] (the eqs. 2–3
          position dependence); [pin_factor 0 = 1.0] *)
}

type t

val create :
  name:string ->
  vdd:Halotis_util.Units.voltage ->
  ?wire_cap_per_fanout:float ->
  lookup:(Halotis_logic.Gate_kind.t -> gate_tech) ->
  unit ->
  t

val name : t -> string
val vdd : t -> Halotis_util.Units.voltage

val wire_cap_per_fanout : t -> float
(** Estimated interconnect capacitance added per fanout pin, fF. *)

val gate_tech : t -> Halotis_logic.Gate_kind.t -> gate_tech
(** The cell of a gate kind.  The library's [lookup] runs once per kind
    (for the fixed-pin kinds and n-ary kinds of up to 16 inputs) and its
    record is kept, so [lookup] must be a pure function of the kind. *)

val edge : gate_tech -> rising:bool -> edge_params
(** Selects {!gate_tech.rise} or {!gate_tech.fall}. *)

val base_delay : edge_params -> pin_factor:float -> cl:float -> tau_in:float -> float
(** The conventional delay [tp0] (ps). *)

val output_slope : edge_params -> cl:float -> float
(** The output ramp full-swing time [tau_out] (ps); never below 1 ps. *)

val degradation_tau : t -> edge_params -> cl:float -> float
(** Eq. 2's tau (ps); never below 1 ps. *)

val degradation_t0 : t -> edge_params -> tau_in:float -> float
(** Eq. 3's T0 (ps); clamped to >= 0. *)

val degradation_t0_coef : t -> edge_params -> float
(** Eq. 3's slope-independent coefficient [1/2 - ddm_c / VDD] — the
    factor the delay cache stores per (gate, edge) and that static
    analyses ({!Halotis_sta}) bound the degradation map with.
    [raw_degradation_t0 t p ~tau_in = degradation_t0_coef t p *. tau_in]. *)

(** The [raw_*] variants below skip the engine-side clamps.  The clamps
    keep a simulation numerically alive, but they also hide physically
    meaningless parameter sets; static validation ([Halotis_lint]) must
    see the unclamped values. *)

val raw_output_slope : edge_params -> cl:float -> float
(** [s0 + s_load * CL], unclamped — may be <= 0 for a bad fit. *)

val raw_degradation_tau : t -> edge_params -> cl:float -> float
(** Eq. 2's tau before the 1 ps floor. *)

val raw_degradation_t0 : t -> edge_params -> tau_in:float -> float
(** Eq. 3's T0 before the >= 0 clamp; negative when [ddm_c > VDD/2]. *)
