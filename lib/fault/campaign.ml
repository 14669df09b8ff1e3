module Netlist = Halotis_netlist.Netlist
module Sim = Halotis_engine.Sim
module Stats = Halotis_engine.Stats
module Compiled = Halotis_engine.Compiled
module Digital = Halotis_wave.Digital
module Hazard = Halotis_sta.Hazard
module Prng = Halotis_util.Prng
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Diag = Halotis_util.Diag

type engine = Sim.engine = Ddm | Cdm | Classic_inertial

let engine_to_string = Sim.engine_to_string
let engine_of_string = Sim.engine_of_string

type outcome = Propagated | Electrically_masked | Logically_masked | Timed_out

let outcome_to_string = function
  | Propagated -> "propagated"
  | Electrically_masked -> "electrically-masked"
  | Logically_masked -> "logically-masked"
  | Timed_out -> "timed-out"

let outcome_of_string = function
  | "propagated" -> Some Propagated
  | "electrically-masked" -> Some Electrically_masked
  | "logically-masked" -> Some Logically_masked
  | "timed-out" -> Some Timed_out
  | _ -> None

type verdict = {
  vd_site : Site.t;
  vd_outcome : outcome;
  vd_po_edges_delta : int;
  vd_first_diff_output : string option;
  vd_stats : Stats.t;
}

type config = {
  engine : engine;
  seed : int;
  n : int;
  pulse : Inject.pulse;
  t_stop : float;
  window : (float * float) option;
  site_budget : Budget.t;
  incremental : bool;
  overlay : Halotis_tech.Param_overlay.t;
  sites : Site.t list option;
  range : (int * int) option;
  completed : verdict list;
  quarantined : int list;
  limit : int option;
}

let config ?(engine = Ddm) ?(seed = 1) ?(n = 100) ?(pulse = Inject.pulse ~width:150. ())
    ?window ?(site_budget = Budget.unlimited) ?(prune = false) ?(incremental = true)
    ?sites ?limit ~t_stop () =
  if n < 0 then invalid_arg "Campaign.config: n must be non-negative";
  if t_stop <= 0. then invalid_arg "Campaign.config: t_stop must be positive";
  if prune then invalid_arg "Campaign.config: static pruning was removed";
  {
    engine;
    seed;
    n;
    pulse;
    t_stop;
    window;
    site_budget;
    incremental;
    overlay = Halotis_tech.Param_overlay.empty;
    sites;
    range = None;
    completed = [];
    quarantined = [];
    limit;
  }

type t = {
  cam_circuit : Netlist.t;
  cam_config : config;
  cam_verdicts : verdict list;
  cam_baseline_stats : Stats.t;
  cam_total_stats : Stats.t;
  cam_sites_total : int;
  cam_complete : bool;
  cam_cone : Sim.Cone.totals option;
  cam_quarantined : (int * Site.t) list;
}

(* One injected run reduced to what classification needs: per-signal
   digital edges, the engine counters, and — for a cone graft — the
   member signals, the only ones whose edges can differ from the
   baseline ([None]: a full re-run, where any signal can). *)
type observed = {
  ob_edges : Digital.edge list array;
  ob_stats : Stats.t;
  ob_members : int array option;
}

let classify ~c ~is_classic ~(base : observed) ~(site : Site.t) (inj : observed) =
  let delta = Stats.diff inj.ob_stats base.ob_stats in
  let victim = site.Site.st_signal in
  (* Non-members of a cone graft alias the baseline lists; skipping
     them spares a structural walk of every baseline edge per site. *)
  let may_differ =
    match inj.ob_members with
    | None -> fun _ -> true
    | Some m -> Compiled.mem_sorted m
  in
  let differs sid = inj.ob_edges.(sid) <> base.ob_edges.(sid) in
  let pos = Netlist.primary_outputs c in
  let po_diff = List.filter (fun sid -> may_differ sid && differs sid) pos in
  let po_edges_delta =
    List.fold_left
      (fun acc sid ->
        if may_differ sid then
          acc + List.length inj.ob_edges.(sid) - List.length base.ob_edges.(sid)
        else acc)
      0 pos
  in
  let outcome =
    if po_diff <> [] then Propagated
    else begin
      let downstream_differs =
        match inj.ob_members with
        | Some m -> Array.exists (fun sid -> sid <> victim && differs sid) m
        | None ->
            Array.exists
              (fun (s : Netlist.signal) ->
                s.Netlist.signal_id <> victim && differs s.Netlist.signal_id)
              (Netlist.signals c)
      in
      (* The classic engine records the forced victim toggles as
         emitted transitions; subtract them so only fanout responses
         count as electrical activity. *)
      let victim_extra =
        List.length inj.ob_edges.(victim) - List.length base.ob_edges.(victim)
      in
      let emitted_downstream =
        delta.Stats.transitions_emitted - if is_classic then victim_extra else 0
      in
      if downstream_differs then Electrically_masked
      else if
        emitted_downstream > 0
        || delta.Stats.transitions_annulled > 0
        || delta.Stats.events_filtered > 0
      then Electrically_masked
      else if delta.Stats.noop_evaluations > 0 then Logically_masked
      else
        (* The strike never even registered at a fanout input: a
           sub-threshold runt, dead on the struck node itself. *)
        Electrically_masked
    end
  in
  {
    vd_site = site;
    vd_outcome = outcome;
    vd_po_edges_delta = po_edges_delta;
    vd_first_diff_output = (match po_diff with [] -> None | sid :: _ -> Some (Netlist.signal_name c sid));
    vd_stats = delta;
  }

(* [cfg]'s site list: [cfg.sites], or [n] strikes drawn by [seed]
   inside [window] against the DDM run [ddm ()], made only then. *)
let site_list cfg ~ddm =
  match cfg.sites with
  | Some s -> s
  | None ->
      let t0, t1 = match cfg.window with Some w -> w | None -> (0., cfg.t_stop) in
      let baseline = Option.get (Sim.iddm (ddm ())) in
      Site.sample ~baseline ~prng:(Prng.create ~seed:cfg.seed) ~n:cfg.n ~t0 ~t1

let strikes cfg tech c ~drives =
  site_list cfg ~ddm:(fun () ->
      Sim.run Sim.Ddm (Sim.spec ~drives ~t_stop:cfg.t_stop ~overlay:cfg.overlay ~tech c))

let run ?on_verdict cfg tech c ~drives =
  let { range; completed; quarantined; limit; _ } = cfg in
  (* Every engine run flows through the {!Sim} facade; the baseline
     never carries the per-site budget — it is the reference every
     verdict is diffed against, so it must be whole.  Every run — the
     baselines included — prices its coefficients at [cfg.overlay]'s
     corner. *)
  let spec ?injections ?budget () =
    Sim.spec ~drives ?injections ~t_stop:cfg.t_stop ?budget
      ~overlay:cfg.overlay ~tech c
  in
  (* One compilation serves every run of the campaign, on any engine:
     the baselines, the cone context and each full re-run. *)
  let compiled = Compiled.compile ~overlay:cfg.overlay tech c in
  let base_run = Sim.run ~compiled cfg.engine (spec ()) in
  (* Sites are sampled from a DDM baseline whatever the engine; with an
     explicit site list no DDM run is needed unless it is the
     baseline. *)
  let sites =
    site_list cfg ~ddm:(fun () ->
        match cfg.engine with
        | Ddm -> base_run
        | Cdm | Classic_inertial -> Sim.run ~compiled Sim.Ddm (spec ()))
  in
  let observe (r : Sim.result) =
    { ob_edges = Sim.edges r; ob_stats = r.Sim.rs_stats; ob_members = None }
  in
  let base = observe base_run in
  (* Incremental cone re-simulation, on every engine.  Armed only when
     every injected run would be whole anyway (unlimited per-site
     budget — a cone run cannot reproduce the exact trip point of a
     budgeted full run); [Sim.Cone.create] additionally refuses a
     truncated, frozen or replay-hazardous baseline.  When armed, a site
     whose cone graft is exact skips the full re-run entirely; any
     fallback re-runs it the old way, so verdicts, reports and journals
     are byte-identical with the optimization on or off.  Built at the
     first fresh site: on DDM/CDM it replays the whole baseline to
     record checkpoints, which a resume with nothing left to run would
     throw away. *)
  let cone_ctx =
    lazy
      (if cfg.incremental && Budget.is_unlimited cfg.site_budget then
         Sim.Cone.create ~compiled cfg.engine (spec ()) ~baseline:base_run
       else None)
  in
  let run_site_full site =
    observe
      (Sim.run ~compiled cfg.engine
         (spec ~injections:[ Inject.injection site cfg.pulse ] ~budget:cfg.site_budget ()))
  in
  let run_site site =
    match Lazy.force cone_ctx with
    | None -> run_site_full site
    | Some ctx -> (
        match Sim.Cone.run_site ctx (Inject.injection site cfg.pulse) with
        | Sim.Cone.Exact { edges; members; stats; _ } ->
            { ob_edges = edges; ob_stats = stats; ob_members = Some members }
        | Sim.Cone.Fallback _ -> run_site_full site)
  in
  let is_classic = cfg.engine = Classic_inertial in
  let site_arr = Array.of_list sites in
  let nsites = Array.length site_arr in
  (* [range] restricts this call to global site indices [lo, hi) — the
     shard protocol.  The default covers everything. *)
  let lo, hi = match range with Some r -> r | None -> (0, nsites) in
  if lo < 0 || hi < lo || hi > nsites then
    Diag.fail ~code:"shard-range"
      (Printf.sprintf "shard range [%d, %d) does not fit the %d-site campaign" lo hi
         nsites);
  (* Quarantined sites (the supervisor gave up on them) are carved out
     of the range: they are never simulated, own no verdict, and are
     reported explicitly — the only permitted delta against an
     unsupervised run. *)
  let quarantined = List.sort_uniq Int.compare quarantined in
  List.iter
    (fun i ->
      if i < lo || i >= hi then
        Diag.fail ~code:"journal-mismatch"
          (Printf.sprintf "quarantined site %d is outside the campaign range [%d, %d)" i
             lo hi))
    quarantined;
  (* [active]: the global indices this run still owns, in order. *)
  let active =
    Array.of_list
      (List.filter
         (fun i -> not (List.mem i quarantined))
         (List.init (hi - lo) (fun i -> lo + i)))
  in
  let nactive = Array.length active in
  (* Resume: [completed] must be a verdict-for-verdict prefix of the
     (range's slice of the) deterministic site list — anything else
     means the journal belongs to a different campaign. *)
  let ncompleted = List.length completed in
  if ncompleted > nactive then
    Diag.fail ~code:"journal-mismatch"
      (Printf.sprintf "journal has %d verdicts but the campaign range has only %d sites"
         ncompleted nactive);
  List.iteri
    (fun i (v : verdict) ->
      if Site.compare site_arr.(active.(i)) v.vd_site <> 0 then
        Diag.fail ~code:"journal-mismatch"
          (Printf.sprintf
             "journal verdict %d was recorded at a different site — wrong seed, circuit or \
              campaign parameters"
             active.(i)))
    completed;
  let fresh_total = nactive - ncompleted in
  let fresh_count =
    match limit with Some k -> min (max 0 k) fresh_total | None -> fresh_total
  in
  let fresh = ref [] in
  for i = 0 to fresh_count - 1 do
    let idx = active.(ncompleted + i) in
    let site = site_arr.(idx) in
    let inj = run_site site in
    let v =
      if not (Stop.completed inj.ob_stats.Stats.stopped_by) then
        (* the per-site budget tripped: the run is a prefix, so no
           verdict about masking can be trusted — record the trip *)
        {
          vd_site = site;
          vd_outcome = Timed_out;
          vd_po_edges_delta = 0;
          vd_first_diff_output = None;
          vd_stats = Stats.diff inj.ob_stats base.ob_stats;
        }
      else classify ~c ~is_classic ~base ~site inj
    in
    (match on_verdict with Some f -> f idx v | None -> ());
    fresh := v :: !fresh
  done;
  let verdicts = completed @ List.rev !fresh in
  (* Rebuild the all-runs total from the per-verdict deltas: the raw
     counters of run [i] are [delta_i + base], integer-exact, so a
     resumed campaign reconstructs the same total an uninterrupted one
     accumulates. *)
  let total = Stats.create () in
  List.iter
    (fun (v : verdict) ->
      Stats.merge total v.vd_stats;
      Stats.merge total base.ob_stats)
    verdicts;
  {
    cam_circuit = c;
    cam_config = cfg;
    cam_verdicts = verdicts;
    cam_baseline_stats = Stats.copy base.ob_stats;
    cam_total_stats = total;
    cam_sites_total = nsites;
    cam_complete = List.length verdicts = nactive;
    cam_cone =
      (if Lazy.is_val cone_ctx then Option.map Sim.Cone.totals (Lazy.force cone_ctx)
       else None);
    cam_quarantined = List.map (fun i -> (i, site_arr.(i))) quarantined;
  }

let counts t =
  List.fold_left
    (fun (p, e, l) v ->
      match v.vd_outcome with
      | Propagated -> (p + 1, e, l)
      | Electrically_masked -> (p, e + 1, l)
      | Logically_masked -> (p, e, l + 1)
      | Timed_out -> (p, e, l))
    (0, 0, 0) t.cam_verdicts

let timed_out t =
  List.fold_left
    (fun n v -> if v.vd_outcome = Timed_out then n + 1 else n)
    0 t.cam_verdicts

let masking_rate t =
  let p, e, l = counts t in
  let n = p + e + l in
  if n = 0 then 0. else float_of_int (e + l) /. float_of_int n

let vulnerability t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun v ->
      if v.vd_outcome = Propagated then
        let g = v.vd_site.Site.st_gate in
        Hashtbl.replace tbl g (1 + Option.value ~default:0 (Hashtbl.find_opt tbl g)))
    t.cam_verdicts;
  Hashtbl.fold (fun g n acc -> (g, n) :: acc) tbl []
  |> List.sort (fun (ga, na) (gb, nb) ->
         match Int.compare nb na with 0 -> Int.compare ga gb | c -> c)

let hazard_crosscheck t h =
  List.filter_map
    (fun v ->
      if v.vd_outcome <> Propagated then None
      else
        let covered =
          match Hazard.window h v.vd_site.Site.st_signal with
          | Some w ->
              v.vd_site.Site.st_at >= w.Hazard.earliest
              && v.vd_site.Site.st_at <= w.Hazard.latest
          | None -> false
        in
        Some (v, covered))
    t.cam_verdicts
