(** Structured diagnostics.

    A {!t} carries everything a tool needs to render a failure once, in
    one place: severity, a stable machine-readable code, an optional
    source location, the message, and an optional one-line hint.  Every
    input boundary returns one: the readers' [parse_string] and
    [parse_file] ([Hnl], [Iscas] and [Circuit_file], [Stimfile],
    [Vcd_reader], [Liberty]) return [(_, t) result], and guarded code
    raises {!Fail}.  The CLI prints {!to_string} without a
    backtrace; serve replies carry [code] and [message]. *)

type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;  (** stable slug, e.g. ["netlist-parse"], ["dc-unstable"] *)
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

exception Fail of t
(** The one exception guarded code is allowed to throw for user-facing
    failures. *)

val make : ?severity:severity -> ?file:string -> ?hint:string -> code:string -> string -> t
(** [make ~code msg] builds a diagnostic without a line; severity
    defaults to [Error]. *)

val fail : ?file:string -> ?hint:string -> code:string -> string -> 'a
(** [fail ~code msg] raises {!Fail} with an [Error] diagnostic. *)

val failf :
  code:string -> ?hint:string -> ?line:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [failf ~code ?hint ?line fmt ...] raises {!Fail} with a formatted
    message: a reader's error, at a source line when it has one. *)

val parse_file : (string -> ('a, t) result) -> string -> ('a, t) result
(** [parse_file parse path] reads the file [path] whole and parses its
    text; a parse error gains [path] as its file.  A file that cannot
    be opened or read (missing, a directory, unreadable) is an [io]
    error naming the path; the channel is closed on every path. *)

val to_string : t -> string
(** ["error[netlist-parse]: c17.hnl:12: unknown gate kind 'nand9'"],
    followed by ["  hint: ..."] on its own line when a hint is
    present. *)

val pp : Format.formatter -> t -> unit
