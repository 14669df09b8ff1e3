(** Structural analyses over a finished {!Netlist.t}: driver checks,
    combinational-cycle enumeration, levelization, reachability and
    fanout statistics.  The simulators require [topological_gates] to
    succeed (purely combinational circuits), matching the paper's
    benchmark set.  The rule-based front end over these analyses lives
    in [Halotis_lint]. *)

type issue =
  | Undriven_signal of Netlist.signal_id
      (** not a PI, not a constant, and has no driver *)
  | Dangling_signal of Netlist.signal_id
      (** an internal or gate-driven signal that drives nothing and is
          not a primary output *)
  | Unused_primary_input of Netlist.signal_id
      (** a primary input with no loads — deliberate or not, it is
          distinct from a genuinely dangling internal wire *)
  | Combinational_cycle of Netlist.gate_id list
      (** one strongly connected component of the gate graph with at
          least one feedback edge *)

val pp_issue : Netlist.t -> Format.formatter -> issue -> unit

val structural_issues : Netlist.t -> issue list
(** All issues; every cyclic SCC is reported once. *)

val topological_gates : Netlist.t -> Netlist.gate_id list option
(** Gates in topological order (fanin before fanout), or [None] when a
    combinational cycle exists. *)

val find_cycle : Netlist.t -> Netlist.gate_id list option
(** A witness cycle in forward edge order (each gate feeds the next,
    the last feeds the first), or [None] when the circuit is acyclic. *)

val sccs : Netlist.t -> Netlist.gate_id list list
(** Every cyclic strongly connected component of the gate graph
    (Tarjan), including single-gate self-loops; unlike {!find_cycle}
    this enumerates {e all} feedback regions. *)

val depth : Netlist.t -> int option
(** Maximum gate level (a gate sits one level above its deepest fanin
    signal, primary inputs at 0); [Some 0] for an empty circuit, [None]
    on a cycle. *)

val max_fanout : Netlist.t -> int
(** Largest number of load pins on any signal. *)

val pi_reachable_gates : Netlist.t -> bool array
(** Per-gate flag: reachable from at least one primary input through
    the signal/gate graph.  Gates fed only by tie cells (or by nothing)
    are unreachable. *)

val constant_signals : Netlist.t -> Halotis_logic.Value.t array
(** Per-signal statically known value under constant propagation from
    the tie cells ([X] when not determined).  Converges on cyclic
    circuits. *)
