(** Mutable construction API for {!Netlist.t}.

    Typical use:
    {[
      let b = Builder.create "demo" in
      let a = Builder.input b "a" in
      let y = Builder.fresh_signal b ~hint:"n" () in
      let _ = Builder.add_gate b ~name:"g1" Inv ~inputs:[ a ] ~output:y in
      Builder.mark_output b y;
      let circuit = Builder.finalize b
    ]} *)

type t

val create : string -> t
(** [create name] starts an empty circuit called [name]. *)

val input : t -> string -> Netlist.signal_id
(** Declares a primary input signal.
    @raise Invalid_argument if the name is taken. *)

val signal : t -> string -> Netlist.signal_id
(** Declares (or returns, if already declared by [signal]) an internal
    signal by name. *)

val fresh_signal : t -> Netlist.signal_id
(** A new internal signal with a generated unique name (["w" ^ number]). *)

val const : t -> Halotis_logic.Value.t -> Netlist.signal_id
(** A tie-cell signal stuck at the given value.  One shared signal per
    distinct value. *)

val add_gate :
  ?name:string ->
  ?input_vt:float option list ->
  ?extra_load:float ->
  t ->
  Halotis_logic.Gate_kind.t ->
  inputs:Netlist.signal_id list ->
  output:Netlist.signal_id ->
  Netlist.gate_id
(** Adds a gate.  [input_vt] lists per-pin threshold overrides in volts
    (defaults to no override).
    @raise Invalid_argument on arity mismatch, double-driven output, or
    duplicate gate name. *)

val mark_output : t -> Netlist.signal_id -> unit
(** Flags a signal as primary output (idempotent). *)

val finalize : t -> Netlist.t
(** Freezes the builder into an immutable, validated circuit.  The
    builder must not be reused afterwards.
    @raise Invalid_argument if validation fails. *)
