(** Splicing a SET pulse into a simulation.

    A radiation-induced transient is modelled as two opposed linear
    ramps [width] apart, sharing one [slope]: the node is pulled
    towards the opposite rail and released.  When [width < slope] the
    pulse never reaches the far rail — a runt whose survival through
    the fanout cone is exactly what the degradation model decides. *)

type pulse = {
  width : Halotis_util.Units.time;  (** leading-to-trailing edge separation, ps *)
  slope : Halotis_util.Units.time;  (** full-swing time of both ramps, ps *)
}

val pulse : ?slope:Halotis_util.Units.time -> width:Halotis_util.Units.time -> unit -> pulse
(** Default slope: 100 ps (the conventional input-ramp slope).
    @raise Invalid_argument when [width <= 0] or [slope <= 0]. *)

val transitions :
  at:Halotis_util.Units.time ->
  polarity:Halotis_wave.Transition.polarity ->
  pulse ->
  Halotis_wave.Transition.t list
(** The two ramps of the SET: leading edge at [at], trailing (opposed)
    edge at [at +. width]. *)

val injection : Site.t -> pulse -> Halotis_engine.Sim.injection
(** The site's pulse as an engine-agnostic {!Halotis_engine.Sim}
    injection: any engine run through the facade splices (or, for the
    classic engine, boolean-abstracts) the same two ramps. *)
