(** Circuit generators for the paper's benchmarks and for tests.

    Everything returns a finalized {!Netlist.t}; signal names follow
    the paper's figures where one exists. *)

val inverter_chain : n:int -> unit -> Netlist.t
(** [inverter_chain ~n ()] is [in -> inv^n -> out], with the
    intermediate signals named [out1 .. out(n-1)] and the last one
    [out].  [n >= 1]. *)

type fig1 = {
  circuit : Netlist.t;
  sig_in : Netlist.signal_id;
  sig_out0 : Netlist.signal_id;
  sig_out1 : Netlist.signal_id;
  sig_out2 : Netlist.signal_id;
  sig_out1c : Netlist.signal_id;
  sig_out2c : Netlist.signal_id;
}

val fig1_circuit : ?vt_low:float -> ?vt_high:float -> unit -> fig1
(** The circuit of the paper's Fig. 1: [in] drives a two-inverter
    chain producing [out0]; [out0] fans out to inverter [g1] whose
    input threshold is [vt_low] (default 1.5 V) and inverter [g2] with
    threshold [vt_high] (default 4.0 V); [out1]/[out2] are buffered by
    further inverters into [out1c]/[out2c]. *)

type adder = {
  adder_circuit : Netlist.t;
  a_bits : Netlist.signal_id list;  (** LSB first *)
  b_bits : Netlist.signal_id list;
  sum_bits : Netlist.signal_id list;  (** LSB first, includes carry-out bit *)
}

val ripple_carry_adder : ?nand_only:bool -> bits:int -> unit -> adder
(** An n-bit ripple-carry adder built from full adders. *)

val carry_lookahead_adder : bits:int -> unit -> adder
(** An n-bit carry-lookahead adder (4-bit lookahead groups, rippling
    group carries).  Functionally identical to
    {!ripple_carry_adder} — see [Equiv.check] — with a much flatter
    arrival profile. *)

type multiplier = {
  mult_circuit : Netlist.t;
  ma_bits : Netlist.signal_id list;  (** multiplicand, LSB first *)
  mb_bits : Netlist.signal_id list;  (** multiplier, LSB first *)
  product_bits : Netlist.signal_id list;  (** s0 .. s(m+n-1), LSB first *)
}

val array_multiplier : ?nand_only:bool -> m:int -> n:int -> unit -> multiplier
(** The carry-save (Braun) array multiplier of the paper's Fig. 5: an
    AND partial-product matrix, [n - 1] rows of [m] full adders whose
    carries are saved into the next row (tie-0 inputs on the boundary
    cells, as drawn in the figure), and a final vector-merge ripple
    row, for [m + n] product bits [s0 ..].
    [array_multiplier ~m:4 ~n:4 ()] is the circuit of Figs. 6/7. *)

val random_combinational :
  ?name:string -> gates:int -> inputs:int -> seed:int -> unit -> Netlist.t
(** A random acyclic circuit for benchmarking: [gates] gates drawn from
    INV/NAND2/NOR2/XOR2 wired to earlier signals.  Every sink-less
    signal is marked as a primary output. *)

val wallace_multiplier : m:int -> n:int -> unit -> multiplier
(** A Wallace-tree multiplier (column-wise 3:2 reduction, then a ripple
    vector merge).  Same interface as {!array_multiplier}; used by the
    tree-vs-array glitch ablation. *)

type sr_latch = {
  latch_circuit : Netlist.t;
  sig_s_n : Netlist.signal_id;  (** active-low set *)
  sig_r_n : Netlist.signal_id;  (** active-low reset *)
  sig_q : Netlist.signal_id;
  sig_qb : Netlist.signal_id;
}

val sr_latch : unit -> sr_latch
(** A cross-coupled NAND set/reset latch — the feedback structure
    behind the paper's metastability motivation.  With both inputs
    inactive (high) the DC relaxation settles at [q = 1]. *)

type latch_glitch = {
  lg_circuit : Netlist.t;
  lg_in : Netlist.signal_id;  (** pulse input feeding the glitch source *)
  lg_glitch : Netlist.signal_id;  (** the degraded node watched by both latches *)
  lg_q_low : Netlist.signal_id;  (** state of the latch behind the low-VT sense *)
  lg_q_high : Netlist.signal_id;  (** state of the latch behind the high-VT sense *)
}

val latch_glitch_circuit : unit -> latch_glitch
(** The latch-triggering scenario, combining Fig. 1 with the paper's
    metastability motivation: an inverter chain degrades an input pulse
    into a runt; a low-VT (1.5 V) and a high-VT (4.0 V)
    sense inverter watch the same runt, each feeding the active-low
    reset of its own NAND latch (both initialised to [q = 1]).  Inside
    the degradation band the low latch flips and the high one holds —
    a *state* difference a filter-at-the-driver simulator cannot
    reproduce, since it resets both latches or neither. *)

type dff = {
  dff_circuit : Netlist.t;
  dff_d : Netlist.signal_id;
  dff_clk : Netlist.signal_id;
  dff_q : Netlist.signal_id;
  dff_qb : Netlist.signal_id;
}

val dff : unit -> dff
(** A positive-edge master-slave D flip-flop built from two gated
    latches and a clock inverter (nine gates).  Used by the SETUP
    experiment to probe the capture boundary and metastability onset
    the paper's introduction cites (refs [9-12]). *)

type counter = {
  ctr_circuit : Netlist.t;
  ctr_clk : Netlist.signal_id;
  ctr_q : Netlist.signal_id list;  (** LSB first *)
}

val ripple_counter : bits:int -> unit -> counter
(** An asynchronous (ripple) counter of toggling flip-flops — the
    engines exercise genuine sequential feedback here, clocked only by
    the primary input. *)
