module Netlist = Halotis_netlist.Netlist
module Stats = Halotis_engine.Stats
module Transition = Halotis_wave.Transition
module Json = Halotis_util.Json

(* Shared with the simulate --json output; emits the same seven
   counters this module always did, plus a [stopped_by] member only for
   runs a guardrail stopped. *)
let stats_json = Stats.to_json

let verdict_json c (v : Campaign.verdict) =
  let site = v.Campaign.vd_site in
  Json.Obj
    ([
       ("gate", Json.Str (Netlist.gate_name c site.Site.st_gate));
       ("signal", Json.Str (Netlist.signal_name c site.Site.st_signal));
       ("at", Json.Num site.Site.st_at);
       ("polarity", Json.Str (Transition.polarity_to_string site.Site.st_polarity));
       ("outcome", Json.Str (Campaign.outcome_to_string v.Campaign.vd_outcome));
       ("po_edges_delta", Json.Num (float_of_int v.Campaign.vd_po_edges_delta));
     ]
    @ (match v.Campaign.vd_first_diff_output with
      | Some name -> [ ("first_diff_output", Json.Str name) ]
      | None -> [])
    @ (if v.Campaign.vd_pruned then [ ("pruned", Json.Bool true) ] else [])
    @ [ ("stats_delta", stats_json v.Campaign.vd_stats) ])

let to_json (t : Campaign.t) =
  let c = t.Campaign.cam_circuit in
  let cfg = t.Campaign.cam_config in
  let propagated, electrical, logical = Campaign.counts t in
  let t0, t1 =
    match cfg.Campaign.window with Some w -> w | None -> (0., cfg.Campaign.t_stop)
  in
  Json.Obj
    [
      ("tool", Json.Str "halotis-faults");
      ("version", Json.Num 1.);
      ("circuit", Json.Str (Netlist.name c));
      ("engine", Json.Str (Campaign.engine_to_string cfg.Campaign.engine));
      ("seed", Json.Num (float_of_int cfg.Campaign.seed));
      ("injections", Json.Num (float_of_int (List.length t.Campaign.cam_verdicts)));
      ("sites_total", Json.Num (float_of_int t.Campaign.cam_sites_total));
      (* pruned/simulated counts live outside "summary" on purpose: the
         taxonomy summary of a pruned campaign must stay byte-identical
         to its unpruned twin's *)
      ("sites_pruned", Json.Num (float_of_int (Campaign.pruned_count t)));
      ( "sites_simulated",
        Json.Num
          (float_of_int
             (List.length t.Campaign.cam_verdicts - Campaign.pruned_count t)) );
      ( "sites_quarantined",
        Json.Num (float_of_int (List.length t.Campaign.cam_quarantined)) );
      ("partial", Json.Bool (not t.Campaign.cam_complete));
      (* always present (false/0/[] when clean) so a supervised campaign
         that recovered every site stays byte-identical to a serial one *)
      ("degraded", Json.Bool (t.Campaign.cam_quarantined <> []));
      ( "pulse",
        Json.Obj
          [
            ("width", Json.Num cfg.Campaign.pulse.Inject.width);
            ("slope", Json.Num cfg.Campaign.pulse.Inject.slope);
          ] );
      ("t_stop", Json.Num cfg.Campaign.t_stop);
      ("window", Json.Arr [ Json.Num t0; Json.Num t1 ]);
      ( "summary",
        Json.Obj
          [
            ("propagated", Json.Num (float_of_int propagated));
            ("electrically_masked", Json.Num (float_of_int electrical));
            ("logically_masked", Json.Num (float_of_int logical));
            ("timed_out", Json.Num (float_of_int (Campaign.timed_out t)));
            ("masking_rate", Json.Num (Campaign.masking_rate t));
          ] );
      ( "vulnerable_gates",
        Json.Arr
          (List.map
             (fun (gid, hits) ->
               Json.Obj
                 [
                   ("gate", Json.Str (Netlist.gate_name c gid));
                   ("propagated", Json.Num (float_of_int hits));
                 ])
             (Campaign.vulnerability t)) );
      ( "quarantined_sites",
        Json.Arr
          (List.map
             (fun (idx, (site : Site.t)) ->
               Json.Obj
                 [
                   ("index", Json.Num (float_of_int idx));
                   ("gate", Json.Str (Netlist.gate_name c site.Site.st_gate));
                   ("signal", Json.Str (Netlist.signal_name c site.Site.st_signal));
                   ("at", Json.Num site.Site.st_at);
                   ( "polarity",
                     Json.Str (Transition.polarity_to_string site.Site.st_polarity)
                   );
                 ])
             t.Campaign.cam_quarantined) );
      ("verdicts", Json.Arr (List.map (verdict_json c) t.Campaign.cam_verdicts));
      ("baseline_stats", stats_json t.Campaign.cam_baseline_stats);
      ("total_stats", stats_json t.Campaign.cam_total_stats);
    ]

let to_string t = Json.to_string (to_json t)

let summary (t : Campaign.t) =
  let propagated, electrical, logical = Campaign.counts t in
  Printf.sprintf "n=%d propagated=%d electrical=%d logical=%d masking-rate=%.2f"
    (List.length t.Campaign.cam_verdicts)
    propagated electrical logical (Campaign.masking_rate t)

let to_text (t : Campaign.t) =
  let c = t.Campaign.cam_circuit in
  let cfg = t.Campaign.cam_config in
  let buf = Buffer.create 1024 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let propagated, electrical, logical = Campaign.counts t in
  let n = List.length t.Campaign.cam_verdicts in
  let pct k = if n = 0 then 0. else 100. *. float_of_int k /. float_of_int n in
  addf "SET fault-injection campaign: %s\n" (Netlist.name c);
  addf "engine %s, seed %d, %d injections, pulse %.0f ps wide / %.0f ps slope\n"
    (Campaign.engine_to_string cfg.Campaign.engine)
    cfg.Campaign.seed n cfg.Campaign.pulse.Inject.width cfg.Campaign.pulse.Inject.slope;
  addf "horizon %.0f ps\n\n" cfg.Campaign.t_stop;
  addf "outcomes:\n";
  addf "  propagated           %4d  (%5.1f%%)\n" propagated (pct propagated);
  addf "  electrically masked  %4d  (%5.1f%%)\n" electrical (pct electrical);
  addf "  logically masked     %4d  (%5.1f%%)\n" logical (pct logical);
  addf "  timed out            %4d  (%5.1f%%)\n" (Campaign.timed_out t)
    (pct (Campaign.timed_out t));
  addf "  masking rate         %.2f\n" (Campaign.masking_rate t);
  let pruned = Campaign.pruned_count t in
  if pruned > 0 then
    addf "  statically pruned    %4d  (%d simulated)\n" pruned (n - pruned);
  if not t.Campaign.cam_complete then
    addf "  PARTIAL: %d of %d sites simulated\n" n t.Campaign.cam_sites_total;
  (match t.Campaign.cam_quarantined with
  | [] -> ()
  | qs ->
      addf "  DEGRADED: %d site%s quarantined by the supervisor\n" (List.length qs)
        (if List.length qs = 1 then "" else "s");
      List.iter
        (fun (idx, site) ->
          addf "    site %d: %s\n" idx (Format.asprintf "%a" (Site.pp c) site))
        qs);
  (match Campaign.vulnerability t with
  | [] -> addf "\nno gate propagated a strike\n"
  | ranked ->
      addf "\nmost vulnerable gates:\n";
      List.iteri
        (fun i (gid, hits) ->
          if i < 10 then addf "  %-16s %d propagated\n" (Netlist.gate_name c gid) hits)
        ranked);
  addf "\nverdicts:\n";
  List.iter
    (fun (v : Campaign.verdict) ->
      addf "  %-20s %s%s%s\n"
        (Format.asprintf "%a" (Site.pp c) v.Campaign.vd_site)
        (Campaign.outcome_to_string v.Campaign.vd_outcome)
        (if v.Campaign.vd_pruned then " [pruned]" else "")
        (match v.Campaign.vd_first_diff_output with
        | Some po -> Printf.sprintf " (first at %s)" po
        | None -> ""))
    t.Campaign.cam_verdicts;
  Buffer.contents buf

let write_vcds ~dir tech ~drives (t : Campaign.t) =
  let module Sim = Halotis_engine.Sim in
  let cfg = t.Campaign.cam_config and c = t.Campaign.cam_circuit in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  List.concat
    (List.mapi
       (fun i (v : Campaign.verdict) ->
         if v.Campaign.vd_outcome <> Campaign.Propagated then []
         else begin
           let site = v.Campaign.vd_site in
           let r =
             Sim.run cfg.Campaign.engine
               (Sim.spec ~drives ~injections:[ Inject.injection site cfg.Campaign.pulse ]
                  ~t_stop:cfg.Campaign.t_stop ~tech c)
           in
           let file =
             Filename.concat dir
               (Printf.sprintf "site%03d_%s.vcd" i (Netlist.gate_name c site.Site.st_gate))
           in
           Halotis_wave.Vcd.write_file file (Sim.vcd_dumps r);
           [ file ]
         end)
       t.Campaign.cam_verdicts)
