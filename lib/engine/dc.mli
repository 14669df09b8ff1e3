(** DC operating point shared by all engines.

    Acyclic circuits are solved exactly in the compiled topological
    order ({!Compiled.t.topo_order}).  Circuits with feedback (latches —
    the paper's metastability motivation) are solved by bounded
    Gauss–Seidel relaxation over the gates in id order; a bistable loop
    settles into the state that relaxation from all-low reaches, which
    is deterministic and documented behaviour.  Oscillating feedback
    (e.g. a ring oscillator) has no fixed point and is rejected. *)

val eval_gate : Compiled.t -> bool array -> int -> bool
(** [eval_gate cp levels g] is {!Halotis_logic.Gate_kind.eval_bool} of
    gate [g] on the signal [levels], its inputs read through the
    compiled pin slots without a per-call input array.  Also the
    classic engine's evaluation over committed values. *)

val levels :
  Compiled.t ->
  input_level:(Halotis_netlist.Netlist.signal_id -> bool) ->
  bool array
(** [levels cp ~input_level] is each signal's initial logic level, given
    the primary-input levels.  Constants override everything.  Gate
    inputs are read through the compiled pin slots, so a DC settle walks
    no netlist record beyond the signal table.
    @raise Invalid_argument when relaxation does not converge. *)
