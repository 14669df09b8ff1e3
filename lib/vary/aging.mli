(** Virtual-stress-hours aging law over delay-model parameters.

    A stylized BTI/HCI degradation model: stress time slows the
    conventional delay macromodel and {e weakens} the degradation
    filter, following the usual sublinear power law

    [aging_scale(h) = 1 + 0.08 * (h / 1000)^0.4]

    Applied to an {!Halotis_tech.Param_overlay.scale}, the conventional
    coefficients ([d0], [d_load], [d_slope], [s0], [s_load]) are
    {e multiplied} by the factor (the gate gets slower) while the DDM
    tau coefficients ([ddm_a], [ddm_b]) are {e divided} by it (eq. 2's
    metastable window shrinks, so marginal pulses that the fresh gate
    filtered start propagating) — which is what makes a TTF sweep
    ({!Sweep}) converge: keep raising [h] and a reference pulse that
    was electrically masked eventually becomes an observable soft
    error.  [ddm_c] (eq. 3's threshold ratio) is left untouched.

    Three stylized shifts, all driven by the same power law
    [x = (h/1000)^0.4]:
    - the conventional macromodel ([d0], [d_load], [d_slope], [s0],
      [s_load]) slows mildly ([* (1 + 0.008 x)] — BTI drive loss);
    - eq. 2's tau coefficients ([ddm_a], [ddm_b]) decay strongly
      ([/ (1 + 0.08 x)] — the metastable window shrinks, so marginal
      pulses the fresh gate filtered start propagating);
    - the input switching threshold drifts toward ground
      ([* 1 / (1 + 0.08 x)] — NBTI weakening the pull-up network), so
      aged gates start seeing runt pulses the fresh circuit rejected.

    The slowdown is deliberately an order of magnitude weaker than the
    other two: a slower gate filters narrow pulses {e harder}, and a
    symmetric law would never let an aged circuit fail — the asymmetry
    is what makes a TTF sweep converge.

    [stress_hours = 0] is {e exactly} the identity — the scale factor
    is the float literal [1.0], so a zero-stress overlay stays empty
    and bit-identity with the nominal campaign holds. *)

val vt_scale : stress_hours:float -> float
(** The threshold-drift multiplier [1 / (1 + 0.08 x)]; exactly [1.0]
    at zero stress.
    @raise Invalid_argument on negative stress. *)

val age_scale :
  stress_hours:float -> Halotis_tech.Param_overlay.scale -> Halotis_tech.Param_overlay.scale
(** Composes aging onto an already-sampled corner (field-wise multiply
    or divide as described above).  Identity at zero stress. *)

val overlay : stress_hours:float -> gates:int -> Halotis_tech.Param_overlay.t
(** Every gate of a [gates]-gate circuit aged uniformly;
    {!Halotis_tech.Param_overlay.empty} at zero stress. *)
