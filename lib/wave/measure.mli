(** Edge-to-edge latency measurement between two digitized signals —
    the bench instrument behind delay characterisation: pair each cause
    edge with the first response edge that follows it and summarise the
    latencies. *)

type stats = {
  count : int;
  min_ps : Halotis_util.Units.time;
  max_ps : Halotis_util.Units.time;
  mean_ps : Halotis_util.Units.time;
}

val latencies :
  cause:Digital.edge list -> response:Digital.edge list -> Halotis_util.Units.time list
(** For each cause edge, the delay to the earliest response edge not
    before it, of either polarity; cause edges with no following
    response are skipped.  Both lists must be time-ordered. *)

val stats : Halotis_util.Units.time list -> stats option
(** [None] on the empty list. *)

val pp_stats : Format.formatter -> stats -> unit
