(** Analytical CMOS inverter timing from the alpha-power-law MOSFET
    model (Sakurai & Newton, JSSC 1990) — the modelling lineage behind
    the paper's conventional-delay references [1–4].

    A transistor in saturation drives [I_D = I_D0 * ((Vgs - Vth) /
    (Vdd - Vth))^alpha]; the inverter delay for a ramp input then has
    the closed form

    [tp = tau_in * (1/2 - (1 - vth) / (1 + alpha)) + C_L * Vdd / (2 * I_D0)]

    (input-slope term plus charge-displacement term), and the output
    transition time follows the full-swing discharge [C_L * Vdd /
    I_D0], scaled to the ramp convention used by the engines.  The
    point is not nanometre accuracy but the correct structure: delay
    affine in load and input slope — exactly the CDM shape the
    technology layer assumes, now derived from device parameters
    instead of postulated. *)

type device = {
  vth : float;  (** threshold voltage, V (same sign convention for N and P) *)
  alpha : float;  (** velocity-saturation index, 1 (strong sat.) .. 2 (long channel) *)
  i_d0 : float;  (** drive current at Vgs = Vdd, mA *)
}

type inverter = {
  vdd : float;  (** supply, V *)
  nmos : device;  (** pull-down *)
  pmos : device;  (** pull-up *)
  c_intrinsic : float;  (** self-load (drain junctions), fF *)
}

val default_inverter : inverter
(** 0.6 um-flavoured values: Vdd 5 V, Vth 0.8/0.9 V, alpha 1.3,
    1.5/1.0 mA drives. *)

val to_tech :
  ?name:string -> base:Halotis_tech.Tech.t -> inverter ->
  sized:(Halotis_logic.Gate_kind.t -> float) ->
  Halotis_tech.Tech.t
(** A technology whose every cell is the analytical inverter scaled by
    [sized kind] (drive-strength multiplier: > 1 = stronger, i.e.
    faster): the standard equivalent-inverter reduction for gate
    networks.  Thresholds, caps and DDM parameters come from [base]. *)

val default_sizing : Halotis_logic.Gate_kind.t -> float
(** Series stacks derate the drive: inverter 1.0, 2-input NAND/NOR
    ~0.75, wider and XOR-class cells lower. *)

val at_vdd : inverter -> float -> inverter
(** [at_vdd inv vdd] rescales the drive currents with the alpha-power
    law itself, [I_D0' = I_D0 * ((vdd - vth) / (vdd_ref - vth))^alpha]
    — the textbook low-voltage slowdown (delay grows roughly as
    [vdd / (vdd - vth)^alpha]). *)
