(** Time-to-failure sweep over virtual stress hours.

    Ages the circuit along the {!Aging} law until a caller-supplied
    probe flips — the canonical probe re-runs one reference SET site
    (a pulse the {e fresh} circuit electrically masks) and answers
    "does it propagate now?".  The driver climbs a geometric ladder
    [100, 200, 400, ...] hours until the probe first answers
    [true] (or the ladder runs out), then bisects the bracketing
    interval a fixed number of times.  Aging is monotone, so the
    refined upper bound is the reported TTF.

    Fully deterministic: probe instants are a pure function of the
    ladder parameters, and every probe outcome is recorded in
    {!t.sw_steps} (in probe order) so reports can show the whole
    trajectory. *)

type step = {
  sw_hours : float;  (** probed virtual stress, hours *)
  sw_failed : bool;  (** the reference pulse propagated at this age *)
}

type t = {
  sw_steps : step list;  (** every probe, in probe order *)
  sw_ttf : float option;
      (** smallest probed stress at which the pulse propagates (after
          bisection refinement); [None] when even the ladder's top
          never fails — the site is immune within the swept range *)
}

val run : ?max_steps:int -> probe:(stress_hours:float -> bool) -> unit -> t
(** The ladder starts at 100 hours and doubles for [max_steps]
    (default 16) rungs; the bracket is bisected 4 times.  [probe] must
    be monotone in stress for the bracket refinement to be meaningful
    (the {!Aging} law is).
    @raise Invalid_argument on a non-positive [max_steps]. *)

val aging_probe :
  Halotis_fault.Campaign.config ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  Halotis_fault.Site.t ->
  stress_hours:float ->
  bool
(** The canonical probe: does a strike at [site] (with [cfg]'s engine,
    pulse and horizon) propagate once every gate is aged
    [stress_hours] ({!Aging.overlay})? *)
