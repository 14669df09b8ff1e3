(* campaign-rand: serial in-process fault campaigns on mid-size random
   circuits, DDM then classic over the same explicit site list, defaults
   kept (cone re-simulation on, pruning off), every verdict journaled at
   the CLI's serial setting.  DDM work sits in Campaign, Sim.Cone and
   digitize; every classic site falls back to a full kernel re-run.

   One repetition runs the campaigns of 24 seeded circuits, so the rates
   and the tail of site times average over circuit structure instead of
   following a few circuits' luck: with four circuits, the p90 site time
   moved by a quarter from seed to seed. *)

module N = Halotis_netlist.Netlist
module Sim = Halotis_engine.Sim
module Stats = Halotis_engine.Stats
module Iddm = Halotis_engine.Iddm
module Campaign = Halotis_fault.Campaign
module Journal = Halotis_fault.Journal
module Site = Halotis_fault.Site
module Fault_report = Halotis_fault.Fault_report
module Prng = Halotis_util.Prng

let tech = W_sim.tech
let setups = 11

(* The CLI's serial journal setting (faults --journal). *)
let sync_every = 1024

type pass = {
  wall : float;
  digest : string;
  first_verdict : float;
}

(* One whole campaign as a user runs it: journal, campaign, report.
   [gaps] collects the microseconds between consecutive verdicts,
   journal writes excluded. *)
let campaign ~path ~sites ~t_stop ~seed ~gaps engine c drives =
  let cfg = Campaign.config ~engine ~seed ~sites ~t_stop () in
  Calib.tick ();
  let t0 = Meas.now () in
  let w =
    Trace.span "journal.open" (fun () ->
        Journal.open_new ~sync_every path (Journal.header_of ~circuit:(N.name c) cfg))
  in
  let first = ref Float.nan and last = ref t0 in
  let on_verdict idx v =
    let t = Meas.now () in
    if Float.is_nan !first then first := Calib.scale (t -. t0)
    else Meas.add gaps (Calib.scale (t -. !last) *. 1e6);
    Trace.span "journal.write" (fun () -> Journal.write w idx v);
    last := Meas.now ()
  in
  let cam =
    Trace.span
      ("campaign." ^ Campaign.engine_to_string engine)
      (fun () -> Campaign.run ~on_verdict cfg tech c ~drives)
  in
  Trace.span "journal.close" (fun () -> Journal.close w);
  let report = Trace.span "render.json" (fun () -> Fault_report.to_string cam) in
  let wall = Calib.scale (Meas.now () -. t0) in
  ( cam,
    { wall; digest = Digest.to_hex (Digest.string report); first_verdict = !first } )

type circuit = {
  c : N.t;
  drives : (N.signal_id * Halotis_engine.Drive.t) list;
  compiled : Halotis_engine.Compiled.t;
  spec : Sim.spec;
  baseline : Sim.result;
  sites : Site.t list;
  t_stop : float;
  seed : int;
}

(* The site list is generated input, handed to both engines' campaigns:
   every gate output struck once, at a seeded instant, with the polarity
   a DDM baseline gives.  Striking every node (rather than sampling
   nodes) keeps the mix of small and large fanout cones steady from seed
   to seed. *)
let prepare (inp : Gen.inputs) ~seed =
  let c, drives, compiled = W_sim.setup inp in
  let t_stop = inp.Gen.t_stop in
  let spec = Sim.spec ~drives ~t_stop ~tech c in
  let baseline = Sim.run Sim.Ddm spec in
  let b = Option.get (Sim.iddm baseline) in
  let rng = Prng.create ~seed in
  let sites =
    List.map
      (fun sid -> Site.of_signal ~baseline:b sid ~at:(Prng.float rng ~bound:t_stop))
      (Site.candidates c)
  in
  { c; drives; compiled; spec; baseline; sites; t_stop; seed }

let run (ctx : Wl.ctx) =
  let ncircuits = if ctx.Wl.tiny then 4 else 24 in
  let gates = if ctx.Wl.tiny then 30 else 250 and inputs = 16 and toggles = 8 in
  let period = 2500. in
  let inputs_of k =
    Gen.circuit_and_stim ~name:(Printf.sprintf "camprand%d" k) ~gates ~inputs ~toggles ~period
      ~seed:(Gen.derive ctx.Wl.seed (20 + k))
  in
  let inps = List.init ncircuits inputs_of in
  let setup_s = Wl.setups setups (fun () -> List.iter (fun i -> ignore (W_sim.setup i)) inps) in
  let circuits =
    List.mapi (fun k inp -> prepare inp ~seed:(Gen.derive ctx.Wl.seed (30 + k))) inps
  in
  let n = List.fold_left (fun acc ci -> acc + List.length ci.sites) 0 circuits in
  if !Trace.enabled then
    List.iter
      (fun ci ->
        ignore
          (Trace.span "probe.cone_create" (fun () ->
               Sim.Cone.create Sim.Ddm ci.spec ~baseline:ci.baseline)))
      circuits;
  (* the first repetition's campaigns, per engine, in circuit order *)
  let first = Hashtbl.create 2 and reps = Hashtbl.create 2 in
  let attempted = ref 0 and failed = ref 0 in
  let ddm_gaps = Meas.hist () and classic_gaps = Meas.hist () in
  let one engine =
    let gaps = if engine = Campaign.Ddm then ddm_gaps else classic_gaps in
    let results =
      List.mapi
        (fun k ci ->
          let path =
            Filename.concat ctx.Wl.work_dir
              (Printf.sprintf "campaign-%s-%d.journal" (Campaign.engine_to_string engine) k)
          in
          campaign ~path ~sites:ci.sites ~t_stop:ci.t_stop ~seed:ci.seed ~gaps engine ci.c
            ci.drives)
        circuits
    in
    let passes = List.map snd results in
    attempted := !attempted + List.length passes;
    (match Hashtbl.find_opt first engine with
    | None -> Hashtbl.replace first engine results
    | Some r0 ->
        List.iter2 (fun (_, p0) p -> if p0.digest <> p.digest then incr failed) r0 passes);
    Hashtbl.replace reps engine (passes :: Option.value ~default:[] (Hashtbl.find_opt reps engine))
  in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  Wl.repeat_for ctx.Wl.seconds (fun _ ->
      one Campaign.Ddm;
      one Campaign.Classic_inertial;
      (* the kernel's share of a classic site: one full run per engine *)
      if !Trace.enabled then
        List.iter
          (fun ci ->
            ignore
              (Trace.span "kernel.ddm" (fun () ->
                   Iddm.run ~compiled:ci.compiled (Iddm.config ~t_stop:ci.t_stop tech) ci.c
                     ~drives:ci.drives));
            ignore (Trace.span "kernel.classic" (fun () -> Sim.run Sim.Classic_inertial ci.spec)))
          circuits);
  let g1 = Gc.quick_stat () in
  let sup =
    if !Trace.enabled then
      Some
        (Supervision.probe ~work_dir:ctx.Wl.work_dir ~cli:ctx.Wl.cli ~seed:(Gen.derive ctx.Wl.seed 40)
           ~tiny:ctx.Wl.tiny)
    else None
  in
  let sup_field f = Option.fold ~none:[] ~some:f sup in
  let rate passes = float_of_int n /. Meas.sum (List.map (fun p -> p.wall) passes) in
  let ddm_reps = Hashtbl.find reps Campaign.Ddm
  and classic_reps = Hashtbl.find reps Campaign.Classic_inertial in
  let ddm0 = Hashtbl.find first Campaign.Ddm
  and classic0 = Hashtbl.find first Campaign.Classic_inertial in
  let total_stats results =
    let s = Stats.create () in
    List.iter (fun ((cam : Campaign.t), _) -> Stats.merge s cam.Campaign.cam_total_stats) results;
    s
  in
  let ddm_total = total_stats ddm0 and classic_total = total_stats classic0 in
  (* The kernel work a classic campaign really does: its baseline plus
     one full run per site, the counters [classic_sites_per_s] pays for. *)
  let classic_work =
    let s = Stats.copy classic_total in
    List.iter (fun ((cam : Campaign.t), _) -> Stats.merge s cam.Campaign.cam_baseline_stats) classic0;
    s
  in
  let cone f =
    List.fold_left
      (fun acc ((cam : Campaign.t), _) -> acc + Option.fold ~none:0 ~some:f cam.Campaign.cam_cone)
      0 ddm0
  in
  let exact = cone (fun t -> t.Sim.Cone.ct_exact) in
  let fallback = n - exact in
  let per_exact x = if exact = 0 then 0. else float_of_int x /. float_of_int exact in
  let digest_of results =
    Digest.to_hex (Digest.string (String.concat "" (List.map (fun (_, p) -> p.digest) results)))
  in
  let taxonomy =
    List.fold_left
      (fun (a, b, c) (cam, _) ->
        let a', b', c' = Campaign.counts cam in
        (a + a', b + b', c + c'))
      (0, 0, 0) ddm0
  in
  let propagated, electrical, logical = taxonomy in
  let gaps = ddm_gaps in
  let writes = Trace.durations "journal.write" in
  let campaigns = List.length (List.concat ddm_reps) + List.length (List.concat classic_reps) in
  let base_events =
    List.fold_left (fun acc ci -> acc + ci.baseline.Sim.rs_stats.Stats.events_processed) 0 circuits
  in
  (* The events a DDM campaign's kernel processes: its baseline, the
     injected cone runs of exact sites, and a baseline-sized full run per
     fallback site.  (A DDM verdict's counters are baseline plus cone
     delta, the equivalent of a full run, not the work done.)  The
     per-victim baseline cone replays are not exposed by Sim.Cone.totals
     and are not counted. *)
  let ddm_events (cam : Campaign.t) =
    let base = cam.Campaign.cam_baseline_stats.Stats.events_processed in
    match cam.Campaign.cam_cone with
    | None -> base + cam.Campaign.cam_total_stats.Stats.events_processed
    | Some t -> base + t.Sim.Cone.ct_cone_events + (t.Sim.Cone.ct_fallback * base)
  in
  let sum_events f results = List.fold_left (fun acc (cam, _) -> acc + f cam) 0 results in
  let classic_base =
    sum_events (fun (cam : Campaign.t) -> cam.Campaign.cam_baseline_stats.Stats.events_processed) classic0
  in
  let ddm_kernel = Wl.median_of "kernel.ddm" and classic_kernel = Wl.median_of "kernel.classic" in
  (* mean run time over mean events: the kernel spans cycle through the circuits *)
  let mean_of name = Meas.sum (Trace.durations name) /. float_of_int (List.length (Trace.durations name)) in
  let mean_base = float_of_int base_events /. float_of_int ncircuits in
  let journal_bytes =
    List.fold_left ( + ) 0
      (List.init ncircuits (fun k ->
           Meas.file_size
             (Filename.concat ctx.Wl.work_dir (Printf.sprintf "campaign-ddm-%d.journal" k))))
  in
  {
    Wl.params =
      [
        ("generator", "random_combinational");
        ("circuits", string_of_int ncircuits);
        ("gates", string_of_int gates);
        ("inputs", string_of_int inputs);
        ("toggles_per_input", string_of_int toggles);
        ("toggle_period_ps", Printf.sprintf "%g" period);
        ("t_stop_ps", Printf.sprintf "%g" (List.hd circuits).t_stop);
        ("sites", Printf.sprintf "%d (every gate output of every circuit)" n);
        ("journal_sync_every", string_of_int sync_every);
      ]
      @ sup_field (fun r -> r.Supervision.params);
    setup = setup_s;
    work = List.map rate ddm_reps;
    ref_work = List.map rate classic_reps;
    latency = gaps;
    attempted = !attempted + Option.fold ~none:0 ~some:(fun r -> r.Supervision.attempted) sup;
    failed = !failed + Option.fold ~none:0 ~some:(fun r -> r.Supervision.failed) sup;
    checks =
      [
        ("ddm_reports_digest", digest_of ddm0);
        ("classic_reports_digest", digest_of classic0);
        ("ddm_taxonomy", Printf.sprintf "%d/%d/%d" propagated electrical logical);
        ("cone_exact", string_of_int exact);
        ("cone_events", string_of_int (cone (fun t -> t.Sim.Cone.ct_cone_events)));
      ]
      @ Wl.stats_checks "ddm_sites_" ddm_total
      @ Wl.stats_checks "classic_sites_" classic_total;
    layer =
      [
        ("hnl_parse_s", Wl.median_of "parse.hnl");
        ("stim_parse_s", Wl.median_of "parse.stim");
        ("compile_s", Wl.median_of "compile.compile");
        ("ddm_kernel_s", ddm_kernel);
        ("classic_kernel_s", classic_kernel);
        ("ddm_ns_per_event", mean_of "kernel.ddm" *. 1e9 /. mean_base);
        ( "classic_ns_per_event",
          mean_of "kernel.classic" *. 1e9 /. (float_of_int classic_base /. float_of_int ncircuits) );
        ("events_per_gate", mean_base /. float_of_int gates);
        ("cone_create_s", Wl.median_of "probe.cone_create");
        ("cone_exact", float_of_int exact);
        ("cone_fallback", float_of_int fallback);
        ("fallback_rate", float_of_int fallback /. float_of_int n);
        ("cone_events_per_site", per_exact (cone (fun t -> t.Sim.Cone.ct_cone_events)));
        ("cone_gates_per_site", per_exact (cone (fun t -> t.Sim.Cone.ct_cone_gates)));
        ("first_verdict_s", Meas.median (List.map (fun p -> p.first_verdict) (List.concat ddm_reps)));
        ("site_us_p50", Meas.hist_quantile gaps 0.5);
        ("site_us_p99", Meas.hist_quantile gaps 0.99);
        ("full_resim_sites", float_of_int (fallback + n));
        ("journal_write_s", Meas.sum writes /. float_of_int (max 1 campaigns));
        ("journal_write_us_p99", Meas.quantile writes 0.99 *. 1e6);
        ("journal_bytes", float_of_int journal_bytes);
        ("render_s", Wl.median_of "render.json");
      ]
      @ sup_field (fun r -> r.Supervision.layer)
      @ Wl.stats_layer classic_work
      @ Wl.gc_layer g0 g1
          ~events:
            ((List.length ddm_reps * sum_events ddm_events ddm0)
            + (List.length classic_reps * classic_work.Stats.events_processed)
            (* the traced run's kernel probes: one run per engine and circuit *)
            + if !Trace.enabled then List.length ddm_reps * (base_events + classic_base) else 0);
  }
