(** Campaign reports: the human-readable and machine-parseable faces
    of a {!Campaign.t}.

    Both renderings are deterministic functions of the campaign value —
    no timestamps, no table order depending on hashing — so identical
    seeds produce byte-identical reports (the reproducibility contract
    golden-tested in the suite). *)

val to_string : Campaign.t -> string
(** The JSON report document: tool/version header, configuration,
    outcome summary with masking rate, per-site verdicts and the
    most-vulnerable-gate ranking.  The degradation fields ([degraded],
    [sites_quarantined], [quarantined_sites]) are always present —
    [false]/[0]/[[]] on a clean campaign — so a supervised run that
    recovered everything is byte-identical to a serial one. *)

val to_text : Campaign.t -> string
(** Human-readable report: configuration header, outcome summary,
    vulnerable-gate table and one verdict line per site. *)

val summary : Campaign.t -> string
(** One line: ["n=50 propagated=12 electrical=30 logical=8
    masking-rate=0.76"]. *)

val write_vcds :
  dir:string ->
  Halotis_tech.Tech.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  Campaign.t ->
  string list
(** Re-runs every propagated strike with the campaign's engine and
    writes its waveforms to [dir/siteNNN_GATE.vcd] (creating [dir]);
    returns the files written, in site order. *)
