(** Per-signal capacitive load extraction.

    The load seen by a gate output is the sum of the input-pin
    capacitances of its fanout, a per-fanout wire estimate, and any
    explicit [extra_load] annotation on the driving gate. *)

val of_netlist : Halotis_tech.Tech.t -> Halotis_netlist.Netlist.t -> float array
(** [of_netlist tech c] gives each signal id its load in fF.  Unloaded
    signals (primary outputs with no fanout) get a default measurement
    load of one inverter input so they still switch realistically. *)
