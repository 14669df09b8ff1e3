(** One interactive serve session: a {!Halotis_engine.Sim.Session}
    plus the bookkeeping the protocol layer needs — a monotone time
    frontier, the last commanded level of every primary input, and
    JSON rendering of every query reply.

    All validation errors raise {!Halotis_util.Diag.Fail} with stable
    codes the server maps to protocol error replies: ["unknown-signal"],
    ["not-an-input"], ["past-time"], ["bad-request"]. *)

type t

val create :
  engine:Halotis_engine.Sim.engine ->
  compiled:Halotis_engine.Compiled.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  slope:float ->
  budget:Halotis_guard.Budget.t ->
  watchdog:Halotis_guard.Watchdog.config option ->
  t_stop:float option ->
  t
(** Seeds drives (typically from a bound stimulus file) without
    simulating anything.  [slope] is the default ramp slope for
    [set_input]/[inject] requests that omit one.
    @raise Invalid_argument as {!Halotis_engine.Sim.Session.start}
    does. *)

val frontier : t -> float
(** The highest instant ever passed to {!advance}; stimulus strictly
    before it is rejected with the ["past-time"] code. *)

val set_input : t -> signal:string -> at:float -> level:bool -> slope:float option -> bool
(** Commands a primary input to [level] via one linear ramp starting at
    [at].  Returns [false] (and appends nothing) when the input is
    already at that level — sessions are level-commanded, not
    edge-commanded, so replaying the same command is idempotent. *)

val inject : t -> signal:string -> at:float -> width:float -> slope:float option -> up:bool -> unit
(** Splices a live SET pulse: a leading ramp at [at] ([up] chooses its
    polarity) and the reversing ramp [width] later. *)

val advance : t -> upto:float -> Halotis_util.Json.t
(** Moves the frontier to [upto] and processes every event at or before
    it; replies with the session status object (time, end_time, event
    and transition counters, truncated flag, stop reason, finished). *)

val query_edges : t -> string option -> Halotis_util.Json.t
(** Digitized edges of one signal, or of every primary output. *)

val query_waveform : t -> string -> Halotis_util.Json.t
(** Raw ramp segments of one signal; a [classic] session has none and
    fails with ["bad-request"]. *)

val query_offenders : t -> int -> Halotis_util.Json.t
(** The [n] busiest signals by committed edge count. *)

val query_stats : t -> Halotis_util.Json.t
(** Full engine counters plus the status object. *)
