(** The line scanner shared by the line-oriented text formats (HNL,
    HSV and ISCAS [.bench]).

    Lines are split on ['\n'], so a text with [n] newlines has [n + 1]
    lines.  A {e blank} is a space, a tab or a carriage return (CRLF
    text reads like LF text), and ['#'] starts a comment that runs to
    the end of the line.  {!next} records the tokens of a line — the
    maximal runs of non-blank bytes before its comment — as offsets
    into the text, in one pass and without copying. *)

type t

val create : string -> t

val next : t -> bool
(** Moves to the next line; [false] once every line has been read. *)

val line : t -> int
(** 1-based number of the current line; after the last, the line count. *)

val count : t -> int
(** Number of tokens on the current line. *)

val start : t -> int -> int
(** [start t i] is the offset of token [i]'s first byte. *)

val stop : t -> int -> int
(** [stop t i] is the offset one past token [i]'s last byte. *)

val token : t -> int -> string
(** Token [i] as a fresh string. *)

val is : t -> int -> string -> bool
(** [is t i s]: token [i] equals [s]; allocates nothing. *)
