(** Mutable construction API for {!Netlist.t}.

    Typical use:
    {[
      let b = Builder.create "demo" in
      let a = Builder.input b "a" in
      let y = Builder.fresh_signal b in
      let _ = Builder.add_gate b ~name:"g1" Inv ~inputs:[| a |] ~output:y in
      Builder.mark_output b y;
      let circuit = Builder.finalize b
    ]}

    Signal ids are dense and follow first mention: the [k]-th name the
    builder sees, by any of the calls below, is signal [k].

    Every call raises [Invalid_argument] once the builder is
    finalized. *)

type t

val create : string -> t
(** [create name] starts an empty circuit called [name]. *)

val input : t -> string -> Netlist.signal_id
(** Declares a primary input signal.
    @raise Invalid_argument if the name is taken. *)

val signal : t -> string -> Netlist.signal_id
(** The signal of that name, declaring an internal signal when the name
    is new. *)

val signal_sub : t -> string -> int -> int -> Netlist.signal_id
(** [signal_sub b s pos len] is [signal b (String.sub s pos len)]; it
    copies the name only when it is new, which is how the readers look
    names up in their source text.
    @raise Invalid_argument if the slice is not inside [s]. *)

val fresh_signal : t -> Netlist.signal_id
(** A new internal signal with a generated unique name (["w" ^ number]). *)

val const : t -> Halotis_logic.Value.t -> Netlist.signal_id
(** A tie-cell signal stuck at the given value.  One shared signal per
    distinct value.
    @raise Invalid_argument if its name ([const_0], [const_1], ...) is
    already taken by another signal. *)

val add_gate :
  ?name:string ->
  ?input_vt:float option array ->
  ?extra_load:float ->
  t ->
  Halotis_logic.Gate_kind.t ->
  inputs:Netlist.signal_id array ->
  output:Netlist.signal_id ->
  Netlist.gate_id
(** Adds a gate.  [input_vt] holds per-pin threshold overrides in volts
    (defaults to no override).  [inputs] and [input_vt] become the
    gate's own arrays, not copies: do not modify them afterwards.
    @raise Invalid_argument on arity mismatch, an [input_vt] of another
    length, a signal id this builder did not return, double-driven
    output, an output that is a primary input or a constant, or
    duplicate gate name. *)

val mark_output : t -> Netlist.signal_id -> unit
(** Flags a signal as primary output (idempotent).
    @raise Invalid_argument on a signal id this builder did not
    return. *)

val finalize : t -> Netlist.t
(** Freezes the builder into an immutable, validated circuit.  The
    builder must not be reused afterwards.
    @raise Invalid_argument if validation fails. *)
