(** Hierarchical Monte-Carlo sampling of per-gate delay-model corners.

    The paper fits one coefficient set per library cell; real silicon
    spreads every coefficient across three nested levels: {e device}
    (gate-to-gate, independent), {e chip} (shared by every gate of one
    sampled circuit instance) and {e lot} (shared by a group of
    8 consecutive sample indices — consecutive chips
    come from the same wafer lot).  Each level contributes a gaussian
    relative spread, so a coefficient's multiplicative corner is

    [1 + sg_device * z_dev + sg_chip * z_chip + sg_lot * z_lot]

    (clamped to at least 0.05, so a coefficient never collapses to zero
    or flips sign), with independent draws per
    parameter class — conventional delay, output slope, DDM tau, VT,
    pin factor — and per output edge.

    {b Determinism.}  Every draw comes from a {!Halotis_util.Prng}
    stream keyed by hashing [(seed, level, sample-or-lot index, gate)],
    so the overlay of sample [k] is a pure function of
    [(seed, k, circuit)] — independent of evaluation order, of how many
    samples run, and of which process runs them ([vary --jobs N] workers
    reconstruct identical overlays).

    {b Bit-identity.}  Zero sigmas and zero stress return
    {!Halotis_tech.Param_overlay.empty} {e exactly} — the campaign run
    under such a sample is byte-identical to the nominal one. *)

type sigmas = {
  sg_device : float;  (** per-gate relative spread (1.0 = 100 %) *)
  sg_chip : float;  (** per-sample (chip) relative spread *)
  sg_lot : float;  (** per-lot relative spread *)
}

val zero : sigmas
val sigmas : ?device:float -> ?chip:float -> ?lot:float -> unit -> sigmas
(** Defaults to {!zero}; sigmas must be finite and non-negative.
    @raise Invalid_argument otherwise. *)

val sample :
  ?stress_hours:float ->
  sigmas ->
  seed:int ->
  index:int ->
  Halotis_netlist.Netlist.t ->
  Halotis_tech.Param_overlay.t
(** The corner of sample [index]: every gate of the circuit gets a
    sampled entry (edge scales, VT, pin factors for pins [>= 1]),
    composed with the {!Aging} law at [stress_hours] (default 0).
    Zero sigmas degrade gracefully: with stress they return the pure
    uniform aging overlay; without, the empty overlay.
    @raise Invalid_argument on a negative [index] or stress. *)
