(** Continuous gate macromodel — the electrical reference substrate.

    The paper validates HALOTIS against HSPICE with 0.6 um transistor
    models; this sealed environment has no SPICE, so the reference is a
    first-order nonlinear macromodel with the two properties the
    comparison actually relies on:

    - {e continuous glitch degradation}: the output is an RC node, so a
      narrow input pulse produces a partial-swing runt that shrinks
      smoothly with pulse width (the physical origin of eq. 1's
      exponential, per the authors' PATMOS'97 analysis);
    - {e input-threshold dependence}: each input pin is read through a
      smooth switching characteristic centred on that pin's VT, so two
      gates with different transfer curves respond differently to the
      same runt (Fig. 1's g1/g2).

    Concretely, a gate computes a target voltage
    [v_goal = VDD * F(x_1 .. x_n)] where [x_i = sigma ((v_i - VT_i) / w)]
    and [F] is the fuzzy-logic extension of its boolean function, and
    the output node follows [dv/dt = (v_goal - v) / tau_rc] with
    separate rise/fall time constants derived from the technology's
    output-slope model. *)

type t = {
  kind : Halotis_logic.Gate_kind.t;
  vt : float array;  (** per-pin switching centre, V *)
  switch_width : float;  (** sigmoid width w, V *)
  tau_rise : float;  (** RC time constant for pull-up, ps *)
  tau_fall : float;  (** ps *)
  transport : float;
      (** intrinsic (load-independent) propagation delay, ps: the
          simulator reads gate inputs this far in the past, standing in
          for the channel transit the RC stage does not capture *)
  vdd : float;
}

val of_gate :
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  loads:float array ->
  Halotis_netlist.Netlist.gate_id ->
  t
(** Derives the macromodel of one gate instance (sigmoid width 0.5 V);
    [tau_rc = tau_out / 2.2], the usual 10–90 % conversion. *)

val goal_voltage : t -> Halotis_util.Units.voltage array -> Halotis_util.Units.voltage
(** Target output voltage for the given input voltages. *)

val derivative :
  t -> v_out:Halotis_util.Units.voltage -> v_goal:Halotis_util.Units.voltage -> float
(** [dv/dt] in V/ps. *)
