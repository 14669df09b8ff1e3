val step : int -> int
(** Named only through a [let module] alias. *)
