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

val injection : Site.t -> pulse -> Halotis_engine.Sim.injection
(** The site's pulse as an engine-agnostic {!Halotis_engine.Sim}
    injection, two ramps: the leading edge at the strike instant, the
    trailing (opposed) edge [width] later.  Any engine run through the
    facade splices (or, for the classic engine, boolean-abstracts) the
    same two ramps. *)
