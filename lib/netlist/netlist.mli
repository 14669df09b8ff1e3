(** Gate-level circuit representation.

    A circuit is a bipartite graph of single-output {e gates} and
    {e signals}.  Every signal has at most one driver (a gate output or
    a primary input) and a list of loads (gate input pins).  Per-pin
    threshold-voltage overrides — the key ingredient of the IDDM
    inertial treatment — live on the gate, indexed by pin.

    Values of type {!t} are immutable; build them with
    {!Halotis_netlist.Builder}. *)

type signal_id = int
type gate_id = int

type gate = {
  gate_id : gate_id;
  gate_name : string;
  kind : Halotis_logic.Gate_kind.t;
  fanin : signal_id array;  (** input pins, in {!Halotis_logic.Gate_kind} pin order *)
  output : signal_id;
  input_vt : float option array;
      (** per-pin threshold-voltage override in volts; [None] = use the
          technology default for this gate kind and pin *)
  extra_load : float;  (** additional output load in fF (wire, probes) *)
}

type signal = {
  signal_id : signal_id;
  signal_name : string;
  driver : gate_id option;  (** [None] for primary inputs and constants *)
  loads : (gate_id * int) array;  (** (gate, pin index) pairs *)
  is_primary_input : bool;
  is_primary_output : bool;
  constant : Halotis_logic.Value.t option;
      (** tie cells: signal permanently stuck at a value *)
}

type t

val name : t -> string
val signal_count : t -> int
val gate_count : t -> int
val signal : t -> signal_id -> signal
val gate : t -> gate_id -> gate
val signals : t -> signal array
val gates : t -> gate array
val primary_inputs : t -> signal_id list
(** In declaration order. *)

val primary_outputs : t -> signal_id list
(** In declaration order. *)

val find_signal : t -> string -> signal_id option

val signal_name : t -> signal_id -> string
val gate_name : t -> gate_id -> string

val fanout_gates : t -> signal_id -> gate_id list
(** Distinct gates loading a signal. *)

module Names : Hashtbl.S with type key = string  (** the signal name table, see {!make} *)

val make :
  name:string ->
  signals:signal array ->
  gates:gate array ->
  primary_inputs:signal_id list ->
  primary_outputs:signal_id list ->
  signal_by_name:signal_id Names.t ->
  t
(** Used by {!Halotis_netlist.Builder}, which hands over its signal
    name table (each name to its id; the circuit keeps it); validates
    internal consistency (ids match indices, pins in range, loads
    consistent with fanin).
    @raise Invalid_argument on inconsistency. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, #gates, #signals, #PI, #PO. *)
