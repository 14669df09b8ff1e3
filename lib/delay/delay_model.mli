(** The delay models of the paper.

    [Cdm] is the conventional delay model the paper compares against
    (HALOTIS-CDM): the load/slope macromodel of {!Halotis_tech.Tech}
    with no state dependence.

    [Ddm] applies the degradation law (eq. 1) on top of the same base
    delay: given the time [T] elapsed between the previous output
    transition and the (nominal) instant of the candidate one,

    [tp = tp0 * (1 - exp (-(T - T0) / tau))]

    with [tau]/[T0] from eqs. 2–3.  When [T <= T0] the computed delay
    collapses to 0: the output ramp then starts at the input event
    itself and annuls the previous ramp in the waveform store — which
    is exactly how runt pulses die in this reproduction. *)

type kind = Cdm | Ddm

val kind_to_string : kind -> string

(** Per-run delay coefficient cache.

    [Tech.gate_tech] re-resolves the cell record (and, with the default
    library, re-allocates it) on every delay evaluation, and most of
    eqs. 1-3 is invariant across a run: the load term of [tp0], the
    output slope, the degradation [tau] and the [T0] coefficient depend
    only on the gate, the edge direction and the (fixed) output load.
    A [Cache.t] precomputes all of them once at [run] setup into flat
    unboxed arrays.

    Delays are bit-identical to evaluating eqs. 1-3 straight from the
    gate's cell record and output load (the test suite's uncached
    reference, [test/ref_delay.ml]): every partial expression is
    associated exactly as there. *)
module Cache : sig
  type t

  val create :
    ?overlay:Halotis_tech.Param_overlay.t ->
    Halotis_tech.Tech.t ->
    Halotis_netlist.Netlist.t ->
    loads:float array ->
    t
  (** [create tech c ~loads] precomputes the per-(gate, edge)
      coefficients and per-pin factors for every gate of [c].  O(gates
      + pins).  [overlay] (default empty) scales the raw
      {!Halotis_tech.Tech.edge_params} and pin factors per gate
      {e before} the derived coefficients (clamps included) are
      computed — the corner a Monte-Carlo sample puts this circuit
      instance at.  The empty overlay is skipped entirely, so the
      cache bytes are identical to the historical overlay-free
      path. *)

  val eval :
    t ->
    Halotis_netlist.Netlist.gate_id ->
    kind ->
    rising_out:bool ->
    pin:int ->
    tau_in:float ->
    t_event:float ->
    last_output_start:float ->
    unit
  (** Evaluates the model for gate [gid]'s candidate output edge
      ([rising_out]), triggered on input [pin] by a ramp of slope
      [tau_in] at [t_event]; [last_output_start] is the start of the
      output's most recent live transition, [Float.nan] when there is
      none.  No record is built: the [tp] (propagation delay to the
      output ramp start, ps, >= 0) and [tau_out] (output ramp
      full-swing time, ps) results are deposited in the cache — read
      them with {!tp} and {!tau_out} before the next [eval].  Eq. 2 is
      evaluated inline, so the call allocates nothing beyond the boxes
      of its float arguments (under the dev profile a float that
      crosses a module boundary is boxed). *)

  val tp : t -> float
  (** Propagation delay computed by the last {!eval}, ps. *)

  val tau_out : t -> float
  (** Output ramp full-swing time computed by the last {!eval}, ps. *)

  type edge_coefficients = {
    ec_d_base : float;  (** [d0 + d_load * CL] — the load term of [tp0], ps *)
    ec_d_slope : float;  (** input-slope sensitivity of [tp0] *)
    ec_tau_out : float;  (** clamped output ramp full-swing time, ps *)
    ec_ddm_tau : float;  (** clamped eq. 2 tau, ps *)
    ec_t0_coef : float;  (** eq. 3's [1/2 - C/VDD] before the [tau_in] product *)
  }
  (** The five cached per-(gate, edge) coefficients, exactly as the
      event kernel reads them (clamps applied). *)

  val edge_coefficients : t -> Halotis_netlist.Netlist.gate_id -> rising:bool -> edge_coefficients
  (** Coefficients of one output-edge direction of a gate. *)

  val pin_factor : t -> Halotis_netlist.Netlist.gate_id -> pin:int -> float
  (** The cached per-pin delay factor. *)
end
