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

(** The name table: names to dense ids [0 .. count - 1] in the order
    they were added.  Names are looked up as slices [(s, pos, len)] of
    a source text, so a reader copies a name only when it is new.
    [find] and [intern] raise [Invalid_argument] on a slice outside
    [s]. *)
module Names : sig
  type t

  val create : unit -> t

  val count : t -> int
  (** Names added so far; the next new name gets this id. *)

  val name : t -> int -> string

  val find : t -> string -> int -> int -> int
  (** [find t s pos len] is the id of [String.sub s pos len], or [-1]. *)

  val intern : t -> string -> int -> int -> int
  (** [intern t s pos len] is [find t s pos len] when that is an id;
      otherwise it adds the name (sharing [s] itself when the slice is
      all of it) with id [count t] and returns that. *)
end

val make :
  name:string ->
  signals:signal array ->
  gates:gate array ->
  primary_inputs:signal_id list ->
  primary_outputs:signal_id list ->
  signal_by_name:Names.t ->
  t
(** Used by {!Halotis_netlist.Builder}, which hands over its signal
    name table (signal [i] is the table's id [i]; the circuit keeps
    it); validates internal consistency (ids match indices, pins in
    range, loads consistent with fanin).
    @raise Invalid_argument on inconsistency. *)

val pp_summary : Format.formatter -> t -> unit
(** One-line summary: name, #gates, #signals, #PI, #PO. *)
