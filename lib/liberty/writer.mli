(** Liberty export: characterising a {!Halotis_tech.Tech.t} into NLDM
    tables by sampling its linear model over a slope/load grid.

    Useful for interop and, paired with {!Fit.to_tech}, for round-trip
    testing: exporting the default library and re-fitting it must
    reproduce the original coefficients exactly (a linear model sampled
    on a grid is recovered exactly by least squares). *)

val of_tech :
  Halotis_tech.Tech.t ->
  kinds:Halotis_logic.Gate_kind.t list ->
  string
(** [of_tech tech ~kinds] renders a Liberty document with one cell per
    kind (named by {!Halotis_logic.Gate_kind.name}), sampled at
    slopes [20, 60, 150, 300] ps, loads [4, 10, 25, 60] fF. *)

val write_file :
  string ->
  Halotis_tech.Tech.t ->
  kinds:Halotis_logic.Gate_kind.t list ->
  unit
