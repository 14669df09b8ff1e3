(** Parser for the Liberty-format subset used by cell libraries.

    The grammar is the generic Liberty group structure:

    {v
    library (demo) {
      time_unit : "1ps";
      cell (inv) {
        pin (y) {
          timing () {
            related_pin : "a";
            cell_rise (tmpl) {
              index_1 ("10, 50, 200");
              index_2 ("5, 20, 80");
              values ("30, 40, 60", "45, 55, 75", "70, 85, 110");
            }
          }
        }
      }
    }
    v}

    Comments ([/* .. */] and [// ..]) are ignored.  This module only
    builds the generic tree; {!Liberty} interprets it. *)

type item =
  | Group of group
  | Attr of string * string  (** [key : value;] *)
  | Complex of string * string list  (** [key ("...", "...");] *)

and group = {
  g_name : string;
  g_args : string list;
  g_items : item list;
  g_line : int;  (** the line of the group's name *)
}

val parse_string : string -> (group, Halotis_util.Diag.t) result
(** Parses one top-level group.  An error is a [liberty-parse]
    diagnostic at its line; an input that ends too early fails at its
    last line. *)

val find_groups : group -> string -> group list
(** Child groups with the given name. *)

val find_attr : group -> string -> string option
val find_complex : group -> string -> string list option
