(** Oscillation watchdog.

    A combinational feedback loop with odd inversion parity (a ring
    oscillator) never quiesces under the classic/CDM engines — the run
    spins forever inside [t_stop].  The watchdog tracks, per signal,
    how many output events fire inside a sliding window of {e simulated}
    time; a signal that exceeds [threshold] events per [window] is
    oscillating.  Depending on {!mode} the engine then either halts the
    run ([Stop.Oscillation]) or freezes the oscillating feedback loop —
    every signal of the SCC that drives the offender — to [X] and lets
    the rest of the circuit continue. *)

type mode =
  | Halt  (** stop the whole run, naming the offending signals *)
  | Degrade
      (** freeze the offending SCC's signals to [X] and continue
          simulating the rest of the circuit *)

type config = {
  window : float;  (** sliding window width, ps *)
  threshold : int;  (** events per window that count as oscillation *)
  wd_mode : mode;
}

val default_window : float
(** 10_000 ps. *)

val default_threshold : int
(** 256 events per window — far above anything a quiescing circuit
    produces, low enough to trip within microseconds of simulated
    oscillation. *)

val config : ?window:float -> ?threshold:int -> ?mode:mode -> unit -> config

type t

val create : config -> nsignals:int -> t

val record : t -> signal:int -> now:float -> bool
(** Account one committed output event on [signal] at simulated time
    [now] (event times on one signal are non-decreasing).  Returns
    [true] when this signal just crossed the oscillation threshold. *)

(** The signals a run has frozen; engines test [fz_any] before
    [fz_marks]. *)
type frozen = {
  fz_marks : Bytes.t;  (** signal -> ['\001'] once frozen *)
  mutable fz_any : bool;  (** some signal is frozen *)
  mutable fz_rev : (int * float) list;
      (** [(signal, freeze instant)], newest first *)
}

val frozen : nsignals:int -> frozen
(** Nothing frozen yet. *)

val thaw : frozen -> unit
(** Back to nothing frozen, in O(frozen signals): how a reused cone
    workspace starts its next run. *)

val trip :
  t -> Halotis_netlist.Netlist.t -> frozen -> signal:int -> at:float -> Stop.t option
(** Acts on a trip of [signal] ({!record} returned [true]) at time
    [at].  The freeze set is every output of the SCC holding [signal]'s
    driver (the whole feedback loop), else [signal] alone.  [Halt] mode
    returns the [Stop.Oscillation] naming it, which the run must stop
    with; [Degrade] mode marks it in [frozen] and returns [None]. *)

val suggest_threshold : ?window:float -> scc_gates:int -> unit -> int
(** A trip threshold tuned to a feedback loop of [scc_gates] gates
    (e.g. the size of a preflight NL008 finding's SCC): half the event
    rate a ring of that size sustains per [window] (default
    {!default_window}), floored at 16.  Smaller loops oscillate faster,
    so they get a {e higher} suggested threshold — the suggestion stays
    comfortably between real oscillation and quiescing activity. *)
