(** Stimulus vectors: operand sequences for the arithmetic circuits,
    including the two multiplication sequences of the paper's
    evaluation (Figs. 6/7, Tables 1/2). *)

type mult_op = { op_a : int; op_b : int }

val pp_mult_op : Format.formatter -> mult_op -> unit
(** Prints ["ExB"]-style hex, as in the paper's figures. *)

val paper_sequence_a : mult_op list
(** 0x0, 7x7, 5xA, Ex6, FxF — the Fig. 6 / Table 1 row 1 sequence. *)

val paper_sequence_b : mult_op list
(** 0x0, FxF, 0x0, FxF, 0x0 — the Fig. 7 / Table 1 row 2 sequence. *)

val expected_product : mult_op -> int

val clock :
  slope:Halotis_util.Units.time ->
  period:Halotis_util.Units.time ->
  start:Halotis_util.Units.time ->
  pulses:int ->
  unit ->
  Halotis_engine.Drive.t
(** A clock drive: [pulses] rising edges at [start], [start + period],
    ..., each high for half a period, initially low. *)

val multiplier_drives :
  slope:Halotis_util.Units.time ->
  period:Halotis_util.Units.time ->
  a_bits:Halotis_netlist.Netlist.signal_id list ->
  b_bits:Halotis_netlist.Netlist.signal_id list ->
  mult_op list ->
  (Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list
(** Drives both operand buses (LSB-first signal lists) through an
    operation sequence, one operation every [period]: the first is the
    initial (t=0) state and operation [k] is applied at [k * period].
    The [a_bits] drives come first. *)
