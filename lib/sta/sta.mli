(** Static timing analysis over the conventional delay model.

    A companion tool to the simulator, in the spirit of the path-delay
    work the paper builds on (Kayssi et al. [3]): topological worst-case
    arrival times per signal and polarity, plus critical-path
    extraction.

    Semantics are conservative with respect to the event-driven
    engines: the arrival time of a signal is an upper bound on the
    instant its waveform completes its last ramp, so for any stimulus
    applied at the analysis' input arrival times, every simulated edge
    of an acyclic circuit lands at or before the reported arrival
    (checked by property test against the IDDM engine in CDM mode). *)

type arrival = {
  rise_at : Halotis_util.Units.time;  (** worst instant a rising ramp completes *)
  fall_at : Halotis_util.Units.time;
  slope : Halotis_util.Units.time;  (** output ramp full-swing time used downstream *)
}

type t

val analyze :
  ?input_slope:Halotis_util.Units.time ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  t
(** Worst-case analysis with all primary inputs switching at time 0
    with [input_slope] (default 100 ps).
    @raise Halotis_util.Diag.Fail (code [cyclic-circuit], with a
    witness cycle) on a combinational cycle. *)

val can_cause : Halotis_logic.Gate_kind.t -> in_rising:bool -> out_rising:bool -> bool
(** Can an input edge of polarity [in_rising] on any pin produce an
    output edge of polarity [out_rising]?  Unate gates constrain the
    combination; XOR-like gates and the mux allow both. *)

val fail_cyclic : Halotis_netlist.Netlist.t -> what:string -> 'a
(** Rejects a cyclic circuit with a [cyclic-circuit] diagnostic naming
    a witness cycle; shared by every static analysis in this library.
    @raise Halotis_util.Diag.Fail always. *)

val arrival : t -> Halotis_netlist.Netlist.signal_id -> arrival

val worst : t -> Halotis_util.Units.time
(** Latest arrival over the primary outputs (0 for a circuit without
    outputs). *)

val worst_output : t -> Halotis_netlist.Netlist.signal_id option
(** The primary output achieving {!worst}. *)

type path_step = {
  step_gate : Halotis_netlist.Netlist.gate_id;
  step_pin : int;
  step_signal : Halotis_netlist.Netlist.signal_id;  (** the gate's output *)
  step_rising : bool;  (** polarity of the output ramp on the path *)
  step_at : Halotis_util.Units.time;
}

val critical_path : t -> path_step list
(** The gate chain realising {!worst}, input-side first; empty when the
    worst output is an undriven signal. *)

val pp_path : Halotis_netlist.Netlist.t -> Format.formatter -> path_step list -> unit
(** One line per hop: gate, pin, output signal, polarity, arrival. *)

val slack :
  t -> period:Halotis_util.Units.time ->
  (Halotis_netlist.Netlist.signal_id * Halotis_util.Units.time) list
(** Per primary output, [period - arrival] (static signals excluded):
    negative slack means the output misses a cycle of that period. *)

val min_period : t -> Halotis_util.Units.time
(** The smallest period with non-negative slack everywhere — {!worst}
    under another name, for clock-planning readability. *)
