(** Static SET pulse-survival analysis — abstract interpretation over
    pulse-width intervals.

    A single-event transient at a gate output is a pair of ramps: a
    leading edge away from the settled rail and a trailing edge back,
    separated by the pulse width [w].  As the pulse crosses a fanout
    input it is filtered by that pin's threshold [VT] (a ramp-start
    separation below [slope * VT/VDD] never crosses), and as it passes
    through a gate the trailing edge is delayed by the DDM degradation
    map (eqs. 1-3) while the leading edge's delay can collapse to 0 —
    so the width transforms through a per-gate transfer function.

    This module computes conservative {e interval} bounds
    [\[w_lo, w_hi\]] on the surviving width, per signal and per leading
    polarity, propagated topologically through the fanout cone using
    exactly the cached per-(gate, edge) coefficients the event kernel
    evaluates ({!Halotis_delay.Delay_model.Cache.edge_coefficients}).

    One consumer: {!analyze}, the baseline-free vulnerability map
    behind [halotis survival] and the preflight lints (NL020, TK007) —
    per-gate attenuation bounds and the weakest injected width whose
    upper bound can still reach each primary output.  It assumes a
    quiescent circuit and non-interfering single-pulse propagation
    (reconvergent pulse collisions are not modelled), so it is
    advisory. *)

module Netlist = Halotis_netlist.Netlist

(** {1 Baseline-free vulnerability map} *)

type t

val analyze :
  ?width:float ->
  ?slope:float ->
  ?kind:Halotis_delay.Delay_model.kind ->
  Halotis_tech.Tech.t ->
  Netlist.t ->
  t
(** [analyze tech c] propagates a canonical pulse (default width 150 ps,
    slope 100 ps — the campaign defaults) from every candidate site
    through its fanout cone under the upper-bound transfer function.
    @raise Halotis_util.Diag.Fail on a combinational cycle. *)

val width : t -> float
val slope : t -> float

val candidates : t -> Netlist.signal_id list
(** The injectable sites the analysis covered: driven signals not
    proven constant, in ascending id order. *)

val all_sites_filtered : t -> bool
(** True when {e no} candidate site's canonical pulse can reach any
    primary output — the campaign's site list is degenerate (lint
    NL020). *)

val to_json : t -> Halotis_util.Json.t
(** The map: per gate, its ["attenuation_bound"] (a surviving pulse
    leaves the gate at most that many ps wider than it arrived; [null]
    when every input threshold filters the canonical pulse); per
    primary output, the ["weakest_surviving_width"] over all candidate
    sites; per candidate site, the ["rise"]/["fall"] weakest injected
    width whose upper bound can still reach some output (narrower
    widths are proven masked).  Unreachable widths are [null]. *)

val pp_text : Format.formatter -> t -> unit
