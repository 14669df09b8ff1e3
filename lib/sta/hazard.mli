(** Static hazard analysis: which gates {e can} produce collision
    glitches.

    For every signal we compute, besides the latest arrival of
    {!Sta.analyze}, the {e earliest} possible arrival (min-delay
    analysis).  A multi-input gate whose input uncertainty windows
    [\[min, max\]] overlap can see input collisions — the glitch
    sources of the paper's introduction.  The dynamic engines then
    confirm or refute each site.

    This is a conservative analysis: every dynamically observed glitch
    on a vectored workload originates at a flagged gate (checked by
    property test), but flagged gates need not glitch for a particular
    vector pair. *)

type window = {
  earliest : Halotis_util.Units.time;
  latest : Halotis_util.Units.time;
}

type kind =
  | Timing  (** input uncertainty windows overlap: a race can glitch *)
  | Function
      (** >= 2 inputs switch but their windows are disjoint: pulses can
          still arise from the intermediate input vector (always for
          XOR-like gates, input-vector-dependent for unate ones) *)

type site = {
  hz_gate : Halotis_netlist.Netlist.gate_id;
  hz_kind : kind;
  hz_window_overlap : Halotis_util.Units.time;
      (** width of the pairwise input-window overlap, ps; 0 for
          {!Function} sites *)
}

type t

val analyze :
  ?input_slope:Halotis_util.Units.time ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  t
(** Min/max arrival analysis with all inputs switching at time 0.
    @raise Halotis_util.Diag.Fail (code [cyclic-circuit], with a
    witness cycle) on a combinational cycle. *)

val window : t -> Halotis_netlist.Netlist.signal_id -> window option
(** Arrival uncertainty window of a signal; [None] when it cannot
    switch (constant cone). *)

val sites : t -> site list
(** Every gate with >= 2 switching inputs — the complete set of
    potential glitch sources (conservative: any glitch a simulation
    generates at a gate with monotone inputs originates at a site).
    {!Timing} sites first, by decreasing overlap, then {!Function}
    sites. *)

val timing_sites : t -> site list
(** Just the {!Timing} subset. *)

val is_hazardous : t -> Halotis_netlist.Netlist.gate_id -> bool

val pp_sites : Halotis_netlist.Netlist.t -> Format.formatter -> site list -> unit
