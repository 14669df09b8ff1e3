(** A located diagnostic produced by one lint rule. *)

type severity = Error | Warning | Info

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

type domain = Netlist | Tech | Liberty | Stim

val domain_to_string : domain -> string

type location =
  | Circuit  (** the whole design *)
  | Signal of string
  | Gate of string
  | Gates of string list  (** e.g. the members of a feedback SCC *)
  | Pin of string * int  (** gate name, input pin index *)
  | Kind of string  (** a gate-kind mnemonic, e.g. ["nand2"] *)
  | Cell of string  (** a Liberty cell *)
  | Entry of string  (** a stimulus-file input entry *)

type t = {
  rule : string;  (** registry id, e.g. ["NL003"] *)
  severity : severity;
  domain : domain;
  location : location;
  message : string;
}

val pp : Format.formatter -> t -> unit
(** e.g. [error NL003 [gate f1 -> f2]: combinational feedback ...] *)

val compare : t -> t -> int
(** Worst severity first, then rule id, then message — a stable report
    order independent of rule evaluation order. *)

val to_json : t -> Halotis_util.Json.t

val edge_name : bool -> string
(** How a finding's message names an edge: ["rising"] or ["falling"]. *)
