(** Gate primitives supported by the netlist and the three engines.

    Each primitive has one output.  N-ary kinds carry their arity; the
    complex cells (AOI/OAI/MUX) have fixed pin lists.  Pin order is the
    order of the [inputs] array of a netlist gate. *)

type t =
  | Buf
  | Inv
  | And of int
  | Nand of int
  | Or of int
  | Nor of int
  | Xor of int
  | Xnor of int
  | Aoi21  (** out = not ((a and b) or c); pins a, b, c *)
  | Oai21  (** out = not ((a or b) and c); pins a, b, c *)
  | Mux2  (** out = if s then b else a; pins a, b, s *)

val arity : t -> int
(** Number of input pins.  N-ary constructors must have arity >= 1
    ([Buf]/[Inv] are the one-input forms). *)

val eval : t -> Value.t array -> Value.t
(** [eval kind inputs] computes the output value.
    @raise Invalid_argument when the array length differs from
    [arity kind]. *)

val eval_bool : t -> bool array -> bool
(** Boolean fast path used by the classical engine and by workload
    checking; same arity contract as {!eval}. *)

val name : t -> string
(** Canonical lowercase mnemonic, e.g. ["nand2"], ["inv"]. *)

val of_name : string -> t option
(** Parses mnemonics produced by {!name}. *)

val of_sub : string -> int -> int -> t option
(** [of_sub s pos len] is [of_name (String.sub s pos len)] without the
    copy.
    @raise Invalid_argument if the slice is not inside [s]. *)

val all_basic : t list
(** A representative list of kinds used by tests and generators. *)
