val default : int
(** Named by nothing: [bin/main.ml]'s [Config.default] is its own local
    module's. *)

val tuned : int
(** Named through [Common.Cfg], an alias another unit defines. *)

val run : ?limit:int -> unit -> int
(** Called, but never with [limit]: the [~limit] beside the call goes to
    another function. *)
