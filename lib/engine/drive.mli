(** Primary-input stimulus: an initial logic level and a time-ordered
    list of ramp transitions applied to one input signal. *)

type t = {
  initial : bool;
  transitions : Halotis_wave.Transition.t list;  (** sorted by start time *)
}

val constant : bool -> t
(** An input that never moves. *)

val of_levels :
  slope:Halotis_util.Units.time ->
  initial:bool ->
  (Halotis_util.Units.time * bool) list ->
  t
(** [of_levels ~slope ~initial changes] builds a drive from
    [(time, level)] pairs (sorted internally); consecutive duplicates
    of the same level are dropped.  Each change becomes a ramp of the
    given slope starting at its time. *)

val pulse :
  slope:Halotis_util.Units.time ->
  at:Halotis_util.Units.time ->
  width:Halotis_util.Units.time ->
  ?initial:bool ->
  unit ->
  t
(** A single positive pulse (or negative when [initial] is [true]). *)

val check : t -> unit
(** @raise Invalid_argument when transitions are unordered. *)

val check_input : who:string -> Halotis_netlist.Netlist.t -> Halotis_netlist.Netlist.signal_id -> unit
(** @raise Invalid_argument prefixed with [who] unless the signal is a
    primary input of the netlist. *)

val bind :
  who:string ->
  Compiled.t ->
  (Halotis_netlist.Netlist.signal_id * t) list ->
  (Halotis_netlist.Netlist.signal_id, t) Hashtbl.t * bool array
(** The drives of one run on the compiled circuit's netlist, keyed by
    signal, each {!check}ed and {!check_input}ed (a later drive of a
    signal replaces an earlier one), and the DC operating point
    ({!Dc.levels}) they start from, undriven inputs low.
    @raise Invalid_argument prefixed with [who], or as {!Dc.levels}. *)
