(** Interpretation of a parsed Liberty tree as a cell library: NLDM
    delay/transition tables per timing arc, input pin capacitances. *)

type arc = {
  related_pin : string;
  cell_rise : Table2d.t option;  (** delay to a rising output: (input slope, load) *)
  cell_fall : Table2d.t option;
  rise_transition : Table2d.t option;  (** output slope of a rising output *)
  fall_transition : Table2d.t option;
}

type cell = {
  cell_name : string;
  output_pin : string;
  input_caps : (string * float) list;  (** pin name -> capacitance, fF *)
  arcs : arc list;  (** one per related input pin *)
}

type t = { lib_name : string; cells : cell list }

val parse_string : string -> (t, Halotis_util.Diag.t) result
(** An error is a [liberty-parse] diagnostic: the syntax errors of
    {!Ast.parse_string}, or a tree that is not a cell library, at the
    line of the group at fault. *)

val parse_file : string -> (t, Halotis_util.Diag.t) result
(** See {!Halotis_util.Diag.parse_file}. *)

val find_cell : t -> string -> cell option

val delay :
  cell -> rising:bool -> pin:string -> slope:float -> load:float -> float option
(** NLDM delay lookup on the arc related to [pin]; [None] when the arc
    or table is absent. *)
