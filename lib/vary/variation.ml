module Campaign = Halotis_fault.Campaign
module Driver = Halotis_fault.Driver

let quarantined mode c k (i, site) =
  Halotis_util.Diag.fail ~code:"site-quarantined"
    ~hint:
      (match mode with
      | Driver.Parent { journal = Some (Driver.Fresh base | Driver.Resume base); _ } ->
          Printf.sprintf
            "vary has no degraded report: --jobs 1 --resume %s reproduces the crash \
             in-process and re-simulates only the failing samples"
            base
      | Driver.Parent { journal = None; _ } | Driver.Worker _ ->
          "vary has no degraded report: rerun with --jobs 1 to reproduce the crash \
           in-process")
    (Format.asprintf
       "sample %d site %d (%a) crashed or hung its worker repeatedly and was quarantined" k i
       (Halotis_fault.Site.pp c) site)

let run ~log ~worker_argv ~samples ~sigmas ~stress_hours ~ttf mode (cfg : Campaign.config)
    tech c ~drives =
  (* The parent runs the nominal campaign for the report and takes the
     strike list from it; a worker needs only the list, so it asks
     [Campaign.strikes], which draws it as the nominal campaign does. *)
  let nominal =
    match mode with
    | Driver.Parent _ -> Some (Campaign.run cfg tech c ~drives)
    | Driver.Worker _ -> None
  in
  let sites =
    match nominal with
    | Some cam -> List.map (fun v -> v.Campaign.vd_site) cam.Campaign.cam_verdicts
    | None -> Campaign.strikes cfg tech c ~drives
  in
  let seed = cfg.Campaign.seed in
  let sample k = Sampler.sample ~stress_hours sigmas ~seed ~index:k c in
  (* A worker prices only the part its range lies in; the other parts
     stand in the plan for their count and size, so they keep the
     nominal overlay instead of a sampled corner. *)
  let overlays =
    match mode with
    | Driver.Parent _ -> List.init samples sample
    | Driver.Worker { range = lo, _; _ } ->
        let own = lo / max 1 (List.length sites) in
        List.init samples (fun k ->
            if k = own then sample k else Halotis_tech.Param_overlay.empty)
  in
  (* one part per sample, so global index [k * nsites + i] is strike i
     of sample k, and one supervisor chunk per sample *)
  let plan =
    Driver.plan ~sampled:true
      (List.map (fun overlay -> { cfg with Campaign.overlay; sites = Some sites }) overlays)
  in
  match
    ( Driver.run ~log ~quarantine:Driver.Fail ~chunk_sites:(max 1 (List.length sites))
        ~worker_argv mode plan tech c ~drives,
      nominal )
  with
  | None, _ | _, None -> None
  | Some result, Some nominal ->
      let campaigns = result.Driver.campaigns in
      Array.iteri
        (fun k cam ->
          let summary = Halotis_fault.Fault_report.summary cam in
          log (Printf.sprintf "sample %d/%d: %s" (k + 1) samples summary);
          match cam.Campaign.cam_quarantined with
          | [] -> ()
          | first :: _ -> quarantined mode c k first)
        campaigns;
      (* TTF sweep: age the whole circuit along the stress-hours ladder
         until the reference pulse — the first strike the fresh circuit
         electrically masked — becomes an observable soft error. *)
      let ttf =
        if not ttf then None
        else
          match
            List.find_opt
              (fun (v : Campaign.verdict) ->
                v.Campaign.vd_outcome = Campaign.Electrically_masked)
              nominal.Campaign.cam_verdicts
          with
          | None ->
              log
                "--ttf: the nominal campaign has no electrically masked site to use as a \
                 reference pulse; skipping the sweep";
              None
          | Some v ->
              let probe = Sweep.aging_probe cfg tech c ~drives v.Campaign.vd_site in
              Some (Sweep.run ~probe ())
      in
      Some
        (Vary_report.make ~circuit:(Halotis_netlist.Netlist.name c)
           ~engine:(Campaign.engine_to_string cfg.Campaign.engine)
           ~seed ~sigmas ~stress_hours ~nominal:nominal.Campaign.cam_verdicts
           ~samples:
             (List.mapi
                (fun k overlay ->
                  ( k,
                    Halotis_tech.Param_overlay.fingerprint overlay,
                    campaigns.(k).Campaign.cam_verdicts ))
                overlays)
           ?ttf ())
