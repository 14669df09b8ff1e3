(** The checkpoint grid of cone runs, one rule for both engines.

    Before a strike, a cone run only replays the baseline.  So each
    engine's cone workspace ({!Iddm.cone_workspace},
    {!Classic.cone_workspace}) steps one replay of the baseline through
    a grid of instants and records the run's state at each; a cone run
    then starts from the latest checkpoint at or before its strike.
    What a checkpoint holds is the engine's business; when it is taken,
    when the grid is kept and how a strike finds its checkpoint is
    this module's. *)

type 'a t = {
  instants : Halotis_util.Units.time array;
      (** ascending; [instants.(0)] is [neg_infinity], the DC state
          before any event *)
  states : 'a array;  (** the engine's checkpoint at each instant *)
}

val take :
  ?grid:Halotis_util.Units.time list ->
  watchdog:bool ->
  Run_control.t ->
  last:Halotis_util.Units.time ->
  capture:(Halotis_util.Units.time -> 'a) ->
  advance:(Halotis_util.Units.time -> unit) ->
  replayed:(unit -> bool) ->
  'a t
(** Checkpoints of a replay of the baseline, whose kernel is the given
    {!Run_control.t}, freshly started.  Checkpoint 0 is [capture
    neg_infinity], the state before any event.  The grid after it is
    16 instants spread evenly over the baseline's active span, from the
    replay's first queued event to [last] (the baseline's last event),
    the final one just past [last]; [grid] replaces those instants.
    Instants at or before the first event are dropped, as they would
    repeat the DC state.  At each instant [t] the replay is advanced
    to just before [t] ([advance], which must process every event keyed
    before [t] and none after) and [capture t] taken.

    The grid is kept only when [replayed ()], which finishes the
    replay, says it ended on the baseline's exact counters, and
    [watchdog] is [false]: a watchdog's sliding window would need the
    history before a checkpoint.  Otherwise checkpoint 0 alone is
    kept. *)

val latest : Halotis_util.Units.time array -> Halotis_util.Units.time -> int
(** [latest instants at] is the index of the last of [instants]
    (ascending, as in {!t}) at or before [at]: 0 for instants before the
    first grid point. *)
