(** Deterministic Monte Carlo SET fault-injection campaigns.

    A campaign runs one baseline simulation, enumerates injection
    sites from it ({!Site}), re-runs the chosen engine once per site
    with the SET spliced in, and classifies every run:

    - {e propagated} — at least one primary output's edge list differs
      from the baseline: the transient became an observable soft error;
    - {e electrically masked} — the pulse entered the fanout cone but
      died on the way: it was degraded/annulled below threshold
      (IDDM), inertially rejected (classic), or produced only runts
      and cancelled events, and no primary output moved;
    - {e logically masked} — fanout gates evaluated but their other
      input values blocked the pulse (only no-op evaluations beyond
      the baseline).

    When a run shows both electrical and logical evidence, electrical
    masking wins — the taxonomy asks whether the pulse {e could} have
    been stopped by gate values alone, and it could not.

    Identical seeds reproduce identical site lists, verdicts and
    reports byte-for-byte: the only randomness is
    {!Halotis_util.Prng} seeded explicitly, and runs are classified in
    site order. *)

type engine = Halotis_engine.Sim.engine = Ddm | Cdm | Classic_inertial
(** Re-export of the facade's engine type: a campaign config names the
    same engines {!Halotis_engine.Sim.run} dispatches on. *)

val engine_to_string : engine -> string
val engine_of_string : string -> engine option

type outcome =
  | Propagated
  | Electrically_masked
  | Logically_masked
  | Timed_out
      (** the per-site resource budget ({!config.site_budget}) stopped
          the injected run before it finished: no masking verdict can
          be trusted, but the campaign carries on *)

val outcome_to_string : outcome -> string
val outcome_of_string : string -> outcome option

type verdict = {
  vd_site : Site.t;
  vd_outcome : outcome;
  vd_po_edges_delta : int;
      (** net extra primary-output edges vs baseline (0 unless propagated) *)
  vd_first_diff_output : string option;
      (** name of the first differing primary output *)
  vd_stats : Halotis_engine.Stats.t;
      (** injected-run counters minus baseline ({!Halotis_engine.Stats.diff}) *)
}

type config = {
  engine : engine;
  seed : int;
  n : int;  (** sampled injections when no explicit site list is given *)
  pulse : Inject.pulse;
  t_stop : Halotis_util.Units.time;  (** simulation horizon, ps *)
  window : (Halotis_util.Units.time * Halotis_util.Units.time) option;
      (** injection time window; default [(0, t_stop)] *)
  site_budget : Halotis_guard.Budget.t;
      (** resource budget applied to each {e injected} run (never to
          the baselines); a trip yields a {!Timed_out} verdict instead
          of aborting the campaign *)
  incremental : bool;
      (** answer each site by incremental cone re-simulation
          ({!Halotis_engine.Sim.Cone}) when the graft is provably exact,
          falling back to a full per-site re-run otherwise — verdicts,
          reports and journals are byte-identical either way, only
          [cam_cone] and the wall clock change.  Default on, for
          every engine.  Silently inert under a finite [site_budget]
          and for baselines the cone machinery refuses (truncated,
          watchdog-frozen or replay-hazardous).  Overlay-aware: the cone
          prices its compiled circuit at [overlay]'s corner. *)
  overlay : Halotis_tech.Param_overlay.t;
      (** parameter corner {e every} run of the campaign — baselines
          and injected runs alike — prices its coefficients at.  Empty
          (the default) reproduces the nominal campaign
          byte-for-byte.  Monte-Carlo variation campaigns
          ([halotis vary]) run one campaign per sampled overlay. *)
  sites : Site.t list option;
      (** explicit site list overriding the PRNG-sampled one — pass
          the same list to several campaigns to compare engines (or
          corners) on identical strikes *)
  range : (int * int) option;
      (** the global site-index slice [\[lo, hi)] this run owns (the
          shard protocol); [None] covers the whole campaign *)
  completed : verdict list;
      (** verdicts already decided (typically loaded from a
          {!Journal}) — must match the range's leading sites
          one-for-one; only the remaining sites are simulated *)
  quarantined : int list;
      (** global site indices the supervisor gave up on: skipped
          entirely and surfaced in [cam_quarantined] *)
  limit : int option;
      (** cap on {e fresh} sites simulated this call; the campaign is
          then [cam_complete = false] *)
}

val default : config
(** The nominal campaign: DDM, seed 1, 100 injections, a
    150 ps / 100 ps pulse, a 10 000 ps horizon, unlimited per-site
    budget, incremental cone re-simulation on,
    empty overlay, whole range, nothing completed, nothing
    quarantined, no limit.  Override fields with [{ default with ... }]
    or build through {!config}. *)

val config :
  ?engine:engine ->
  ?seed:int ->
  ?n:int ->
  ?pulse:Inject.pulse ->
  ?window:Halotis_util.Units.time * Halotis_util.Units.time ->
  ?site_budget:Halotis_guard.Budget.t ->
  ?prune:bool ->
  ?incremental:bool ->
  ?overlay:Halotis_tech.Param_overlay.t ->
  ?sites:Site.t list ->
  ?range:int * int ->
  ?completed:verdict list ->
  ?quarantined:int list ->
  ?limit:int ->
  t_stop:Halotis_util.Units.time ->
  unit ->
  config
(** {!default} with the horizon set and any field overridden.

    [?prune] is a source-compatibility label with no field behind it:
    static campaign pruning was removed, so [~prune:false] is a no-op
    and [~prune:true] raises [Invalid_argument].  It will be deleted in
    the next change to the benchmark harness ([perfbench/]), its last
    user.
    @raise Invalid_argument when [n < 0], [t_stop <= 0] or [prune]. *)

type t = {
  cam_circuit : Halotis_netlist.Netlist.t;
  cam_config : config;
  cam_verdicts : verdict list;  (** in site order *)
  cam_baseline_stats : Halotis_engine.Stats.t;
  cam_total_stats : Halotis_engine.Stats.t;
      (** all injected runs merged ({!Halotis_engine.Stats.merge});
          rebuilt from per-verdict deltas so a resumed campaign gets
          the identical total an uninterrupted one does *)
  cam_sites_total : int;  (** sites the {e whole} campaign comprises *)
  cam_complete : bool;
      (** false when [limit] stopped the campaign early — the verdict
          list covers only a prefix of the (range's) sites *)
  cam_cone : Halotis_engine.Sim.Cone.totals option;
      (** incremental accounting (exact/fallback site counts,
          fallbacks by reason, cone sizes) when cone re-simulation was
          armed; [None] when it was
          off or refused.  Never rendered into reports — report bytes
          must not depend on the engine path. *)
  cam_quarantined : (int * Site.t) list;
      (** sites the supervisor quarantined (global index, site), in
          index order: they own no verdict, and the campaign is
          {e degraded} — whole except for exactly this list.  Empty for
          unsupervised campaigns. *)
}

val run :
  ?on_verdict:(int -> verdict -> unit) ->
  config ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  t
(** Runs the campaign; every engine run goes through
    {!Halotis_engine.Sim.run}, priced at [config.overlay]'s corner.
    Sites come from [config.sites] when given, otherwise from the
    seeded PRNG sample, which is always drawn against a DDM baseline
    (the reference levels) whatever [config.engine] simulates the
    strikes.  A CDM or classic campaign given explicit sites runs no
    DDM simulation at all.

    Sharding: [config.range = Some (lo, hi)] claims global site
    indices [\[lo, hi)] of the deterministic enumeration — the slice a
    worker process owns.  Verdict indices reported through
    [on_verdict] stay global, so shard journals merge by index
    ({!Journal.merge}).

    Checkpoint/resume: [config.completed] supplies verdicts already
    decided — typically loaded from a {!Journal} — which must match
    the range's leading sites one-for-one; only the remaining sites
    are simulated, so an interrupted-then-resumed campaign returns a
    value byte-identical (through {!Fault_report}) to a
    straight-through one.  [config.quarantined] lists global site
    indices the supervisor gave up on: they are skipped entirely
    (never simulated, never journaled as verdicts) and surface in
    [cam_quarantined]; [completed] then covers the range's leading
    {e non-quarantined} sites.  [config.limit] caps how many {e fresh}
    sites get simulated this call (the campaign is then
    [cam_complete = false]).  [on_verdict] fires after each fresh site
    with its global index — the journaling hook.
    @raise Invalid_argument on an empty window or site list trouble.
    @raise Halotis_guard.Diag.Fail ([journal-mismatch]) when
    [completed] does not match the campaign's site list, or
    ([shard-range]) when [range] exceeds the enumeration. *)

val counts : t -> int * int * int
(** [(propagated, electrically_masked, logically_masked)] —
    {!Timed_out} verdicts are counted by {!timed_out} alone. *)

val timed_out : t -> int
(** Number of {!Timed_out} verdicts. *)

val masking_rate : t -> float
(** Fraction of injections that did {e not} propagate; 0 on an empty
    campaign. *)

val vulnerability : t -> (Halotis_netlist.Netlist.gate_id * int) list
(** Gates ranked by number of propagated strikes on their output,
    descending (ties by gate id); gates with none are omitted. *)

val hazard_crosscheck :
  t -> Halotis_sta.Hazard.t -> (verdict * bool) list
(** Each propagated verdict paired with whether the strike instant
    falls inside the victim signal's static arrival-uncertainty window
    ({!Halotis_sta.Hazard.window}) — [false] flags soft errors the
    static analysis gives no timing cover for. *)
