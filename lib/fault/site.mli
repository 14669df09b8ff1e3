(** SET injection sites: where, when and which way a particle strike
    perturbs the circuit.

    A site is a gate output × pulse polarity × injection instant.  The
    polarity is always {e away} from the node's quiescent level at the
    strike instant (a strike on a node already at the rail it pulls
    towards is a no-op), so enumeration needs a baseline run to know
    the level each node sits at over time. *)

type t = {
  st_signal : Halotis_netlist.Netlist.signal_id;  (** struck node (a gate output) *)
  st_gate : Halotis_netlist.Netlist.gate_id;  (** the gate driving it *)
  st_polarity : Halotis_wave.Transition.polarity;
      (** direction of the SET's leading edge *)
  st_at : Halotis_util.Units.time;  (** strike instant, ps *)
}

val compare : t -> t -> int
(** Total order (signal, time, polarity) — the deterministic iteration
    order of exhaustive campaigns. *)

val candidates : Halotis_netlist.Netlist.t -> Halotis_netlist.Netlist.signal_id list
(** Gate-output signals in id order — every strikeable node.  Primary
    inputs and tie cells are excluded (input strikes are stimulus
    edits, not SETs on logic). *)

val of_signal :
  baseline:Halotis_engine.Iddm.result ->
  Halotis_netlist.Netlist.signal_id ->
  at:Halotis_util.Units.time ->
  t
(** A single site on the given gate output at [at].  Its polarity
    perturbs the baseline level at VDD/2: [Rising] when low, [Falling]
    when high.
    @raise Invalid_argument when the signal has no driving gate. *)

val exhaustive :
  baseline:Halotis_engine.Iddm.result ->
  times:Halotis_util.Units.time list ->
  t list
(** Every candidate node × every instant, polarity from the baseline;
    ordered by {!compare}. *)

val sample :
  baseline:Halotis_engine.Iddm.result ->
  prng:Halotis_util.Prng.t ->
  n:int ->
  t0:Halotis_util.Units.time ->
  t1:Halotis_util.Units.time ->
  t list
(** [n] sites drawn uniformly (node × instant in [\[t0, t1)]) from the
    given PRNG state — identical seeds yield identical site lists. *)

val grid :
  t0:Halotis_util.Units.time ->
  t1:Halotis_util.Units.time ->
  points:int ->
  Halotis_util.Units.time list
(** [points] instants evenly spread over [\[t0, t1)] — the time axis of
    exhaustive campaigns. *)

val pp : Halotis_netlist.Netlist.t -> Format.formatter -> t -> unit
(** ["g5_G22/G22 rising @ 1234.5 ps"]. *)
