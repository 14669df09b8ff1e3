(** Sparse per-gate delay-parameter overlays.

    A technology ({!Tech.t}) fits the delay/degradation coefficients
    once per library cell; real silicon spreads them per device, chip
    and lot, and stress time degrades them.  An overlay is a sparse
    map from gate ids to multiplicative scale factors applied to the
    {!Tech.edge_params} coefficients (per edge), the switching
    threshold and the pin factors — the corner a Monte-Carlo sample or
    an aging law puts one circuit instance at.

    Overlays are {e explicit}: every engine prices coefficients through
    an overlay argument, and the empty overlay is guaranteed
    bit-identical to pricing straight from [Tech] (application is
    skipped entirely, not multiplied by 1.0).

    The {!fingerprint} is a content digest of the canonical
    serialization — two structurally equal overlays share it, and it
    keys compiled-circuit caches so different corners never alias. *)

type scale = {
  sc_d0 : float;
  sc_d_load : float;
  sc_d_slope : float;
  sc_s0 : float;
  sc_s_load : float;
  sc_ddm_a : float;
  sc_ddm_b : float;
  sc_ddm_c : float;
}
(** Multiplicative factors, one per {!Tech.edge_params} field. *)

val scale_identity : scale
(** All factors 1.0. *)

type entry = {
  en_rise : scale;
  en_fall : scale;
  en_vt : float;  (** multiplies every input pin's switching threshold *)
  en_pin : (int * float) list;
      (** per-pin factor scales, sorted by pin index; pins absent
          scale by 1.0 *)
}
(** One gate's corner. *)

val entry_identity : entry

type t
(** A sparse overlay: gate ids absent from the map are at the
    identity corner. *)

val empty : t
(** The identity overlay — engines skip application entirely. *)

val is_empty : t -> bool

val set : t -> gate:int -> entry -> t
(** [set t ~gate e] binds gate [gate] to corner [e]; an identity
    entry removes the binding instead (so [is_empty] and
    {!fingerprint} never depend on identity noise). *)

val edge_scale : t -> gate:int -> rising:bool -> scale
(** The scale applied to [Tech.edge gt ~rising] for this gate. *)

val vt_scale : t -> gate:int -> float
(** The threshold multiplier for this gate's input pins. *)

val pin_scale : t -> gate:int -> pin:int -> float
(** The extra factor on [pin_factor pin] for this gate. *)

val apply_edge : scale -> Tech.edge_params -> Tech.edge_params
(** Field-wise multiplication.  Callers must skip the call entirely
    for absent entries — [apply_edge scale_identity p] is numerically
    [p] but the bit-identity guarantee rests on not calling it. *)

val equal : t -> t -> bool
(** Structural equality (same gates, bitwise-equal factors) — used by
    {!Halotis_engine.Iddm.start} to validate a caller-supplied
    compiled circuit, where the overlay may have been reconstructed
    rather than shared physically. *)

val fingerprint : t -> string
(** Hex content digest of the canonical serialization ([%h] floats,
    gates in id order).  [fingerprint empty] is the well-known empty
    fingerprint; structurally equal overlays fingerprint equally. *)
