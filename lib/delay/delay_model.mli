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

type request = {
  rising_out : bool;  (** direction of the candidate output transition *)
  pin : int;  (** input pin whose event triggers the evaluation *)
  tau_in : float;  (** slope time of the causing input transition, ps *)
  t_event : float;  (** instant of the input event, ps *)
  last_output_start : float option;
      (** start of the most recent live output transition; [None] when
          the output never switched *)
}

type response = {
  tp : float;  (** propagation delay to the output ramp start, ps; >= 0 *)
  tau_out : float;  (** output ramp full-swing time, ps *)
  tp_nominal : float;  (** the undegraded [tp0], ps *)
  degraded : bool;  (** [tp < tp_nominal] beyond tolerance *)
}

val compute :
  Halotis_tech.Tech.t ->
  gate_tech:Halotis_tech.Tech.gate_tech ->
  cl:float ->
  kind ->
  request ->
  response
(** Evaluates the chosen model.  [cl] is the output load in fF. *)

(** Per-run delay coefficient cache.

    [Tech.gate_tech] re-resolves the cell record (and, with the default
    library, re-allocates it) on every delay evaluation, and most of
    eqs. 1-3 is invariant across a run: the load term of [tp0], the
    output slope, the degradation [tau] and the [T0] coefficient depend
    only on the gate, the edge direction and the (fixed) output load.
    A [Cache.t] precomputes all of them once at [run] setup into flat
    unboxed arrays.

    Delays are bit-identical to {!compute} on the gate's cell record
    and output load: every partial expression is associated exactly as
    [compute] associates it. *)
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
  (** {!compute} for the event hot paths, with no record built: scalar
      arguments instead of a {!request} ([last_output_start] is
      [Float.nan] when the output has no previous live transition), and
      the [tp] / [tau_out] results are deposited in the cache — read
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
