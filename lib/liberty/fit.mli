(** Characterisation: fitting the linear CDM of {!Halotis_tech.Tech}
    to NLDM tables, the way simulator delay models are calibrated from
    vendor libraries.

    Delay tables fit [tp = d0 + d_slope*slope + d_load*load] by
    ordinary least squares over every grid point; transition tables fit
    [tau = s0 + s_load*load].  Degradation parameters (eqs. 2–3) are
    not representable in Liberty and are inherited from a base
    technology. *)

type quality = { delay_rmse : float; slope_rmse : float }
(** Root-mean-square residuals of the two fits, in ps. *)

val to_tech :
  base:Halotis_tech.Tech.t ->
  kind_of_cell:(string -> Halotis_logic.Gate_kind.t option) ->
  Liberty.t ->
  Halotis_tech.Tech.t * (Halotis_logic.Gate_kind.t * quality) list
(** Builds a technology whose cells with a recognised Liberty
    counterpart (via [kind_of_cell] on the cell name) use fitted
    coefficients and the library's input capacitance, falling back to
    [base] otherwise.  The first arc of each cell characterises it;
    pin-position dependence keeps the base's [pin_factor].  Also
    returns the fit quality per replaced kind. *)

val default_kind_of_cell : string -> Halotis_logic.Gate_kind.t option
(** Cell names equal to {!Halotis_logic.Gate_kind.name} mnemonics. *)
