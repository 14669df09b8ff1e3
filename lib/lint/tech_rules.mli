(** Delay-model parameter rules (TK rules): the IDDM machinery (paper
    eqs. 1-3) silently degenerates when tau, T0, tp0 or VT leave their
    physical ranges — these rules see the {e unclamped} values via
    [Tech.raw_*] and reject them before a simulation runs. *)

val run :
  Rule.config -> Halotis_tech.Tech.t -> Halotis_netlist.Netlist.t -> Finding.t list
(** Checks the parameter sets of the gate kinds the netlist actually
    instantiates, at the configured representative loads and slopes,
    plus the per-pin VT overrides recorded on its gates (TK004). *)
