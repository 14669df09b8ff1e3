(** The lint engine: runs the enabled rules of every applicable domain
    over a design, renders reports as text or JSON, and maps findings
    to process exit codes.

    Rule ids, severities and docs live in {!Rule}; domain checkers in
    [Netlist_rules], [Tech_rules], [Liberty_rules] and [Stim_rules].
    The simulators call {!preflight} before running. *)

val run :
  ?config:Rule.config ->
  ?tech:Halotis_tech.Tech.t ->
  ?liberty:Halotis_liberty.Liberty.t ->
  ?stim:Halotis_stim.Stimfile.t ->
  Halotis_netlist.Netlist.t ->
  Finding.t list
(** Netlist rules always run; tech rules run against [tech] (default:
    the built-in library) over the kinds the netlist uses; Liberty and
    stimulus rules run only when the corresponding input is given.
    Findings come back sorted worst-first ({!Finding.compare}). *)

val preflight :
  ?stim:Halotis_stim.Stimfile.t ->
  tech:Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  Finding.t list
(** The engine-relevant subset (netlist + tech + stimulus rules) at
    default configuration, filtered to warnings and errors — what
    [simulate] and [compare] print before running. *)

val exit_code : strict:bool -> Finding.t list -> int
(** [2] when any error remains, [1] when warnings remain and [strict]
    is set, [0] otherwise. *)

val summary : Finding.t list -> string
(** e.g. ["2 errors, 1 warning, 3 infos"] or ["clean"]. *)

val pp_text : Format.formatter -> Finding.t list -> unit
(** One finding per line, worst first. *)

val report_to_json : Finding.t list -> Halotis_util.Json.t
(** [{ "tool": "halotis-lint", "version": 1, "findings": [...],
    "summary": {...} }] — stable enough for machine consumption. *)

val rules_markdown : unit -> string
(** The rules table of [doc/lint.md], generated from {!Rule.all} so the
    documentation cannot drift from the registry. *)

val rules_json : unit -> Halotis_util.Json.t
(** The registry as JSON (for [--list-rules --format json]). *)
