(** A minimal JSON value type with an emitter and a parser — enough for
    the machine-parseable report documents ([halotis lint --format
    json], [halotis faults --format json]) and for the test suite to
    round-trip them, without pulling an external dependency into the
    toolchain image. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialises; [indent] (default true) pretty-prints with two-space
    indentation.  Strings are escaped per RFC 8259; integral numbers
    print without a decimal point. *)

type parse_error = {
  pe_offset : int;  (** byte offset of the defect *)
  pe_msg : string;  (** e.g. ["unterminated string"], ["trailing garbage"] *)
}
(** A structured parse failure — what a wire peer gets back instead of
    a best-effort value.  Unterminated strings, truncated escapes and
    garbage after the value are all hard errors. *)

val parse_error_to_string : parse_error -> string
(** ["<msg> at offset <n>"]. *)

val parse_strict : string -> (t, parse_error) result
(** Recursive-descent parser for the subset emitted by {!to_string}
    plus standard escapes (including [\uXXXX], encoded to UTF-8).
    Rejects anything that is not exactly one JSON value: an
    unterminated string or a value followed by trailing bytes is an
    [Error], never a truncated [Ok].  Arrays and objects nested more
    than {!max_depth} deep are an [Error] (["nesting too deep"]) at the
    offset of the first bracket beyond that depth, so the recursion
    is bounded whatever the input. *)

val max_depth : int
(** The deepest nesting of arrays and objects {!parse_strict}
    accepts: 512. *)

val parse : string -> (t, string) result
(** {!parse_strict} with the error rendered by
    {!parse_error_to_string}. *)

(** Newline-delimited streams — the framing shared by the [halotis
    serve] wire protocol and the fault-journal loader.  A {!Lines.reader}
    yields complete ['\n']-terminated lines (terminator stripped, a
    trailing ['\r'] too); a final unterminated fragment — a torn write,
    a peer dying mid-request — is never yielded as a line and stays
    readable via {!Lines.leftover}. *)
module Lines : sig
  type reader

  val of_channel : in_channel -> reader
  (** Reads incrementally (blocks only for the next available chunk),
      so it serves interactive transports as well as files. *)

  val of_string : string -> reader

  val next : reader -> string option
  (** The next complete line, [None] at end of stream. *)

  val leftover : reader -> string
  (** After {!next} returns [None]: the unterminated tail, [""] when
      the stream ended cleanly. *)

  val fold : reader -> init:'a -> f:('a -> string -> 'a) -> 'a
  val to_list : reader -> string list
end

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] otherwise. *)

val to_list : t -> t list
(** Elements of an [Arr]; [[]] otherwise. *)

val to_float : t -> float option
val to_str : t -> string option
