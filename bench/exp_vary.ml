(* VARY — Monte-Carlo variation & aging campaigns (extension).

   The paper fits one set of delay/degradation coefficients per library
   cell; real silicon spreads them per device, chip and lot, and stress
   time degrades them.  This experiment re-runs the same SET strike
   list on the 4x4 multiplier across sampled parameter corners and
   measures what the workload exists for: the masking-probability
   distribution widens with the sampled spread, the zero-sigma sample
   reproduces the nominal campaign byte-for-byte, and a virtual-stress
   sweep finds the age at which a pulse the fresh circuit masked first
   becomes an observable soft error. *)

open Common
module Inject = Halotis_fault.Inject
module Campaign = Halotis_fault.Campaign
module Fault_report = Halotis_fault.Fault_report
module Driver = Halotis_fault.Driver
module Sampler = Halotis_vary.Sampler
module Sweep = Halotis_vary.Sweep
module Variation = Halotis_vary.Variation
module Vary_report = Halotis_vary.Vary_report

let seed = 42
let injections = 16
let width = 100.
let ops = [ { V.op_a = 5; op_b = 11 }; { V.op_a = 10; op_b = 6 } ]
let sigma_ladder = [ 0.05; 0.15; 0.3 ]

(* Corners per sigma rung.  Overridable so CI can run a quick smoke
   (e.g. [HALOTIS_VARY_SAMPLES=2]) through the same code path as the
   full measurement. *)
let samples_per_rung =
  match Sys.getenv_opt "HALOTIS_VARY_SAMPLES" with
  | None | Some "" -> 8
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "HALOTIS_VARY_SAMPLES: bad count %S (want a positive int)" s))

let campaign_config =
  Campaign.config ~engine:Campaign.Ddm ~seed ~n:injections
    ~pulse:(Inject.pulse ~width ())
    ~window:(500., horizon -. 1000.)
    ~t_stop:horizon ()

let run () =
  section "VARY -- Monte-Carlo variation & aging campaigns (extension)";
  let m = Lazy.force multiplier in
  let c = m.G.mult_circuit in
  let drives = mult_drives ops in
  Printf.printf
    "circuit %s, %d strikes, seed %d, pulse %.0f ps wide, %d corners per sigma rung\n\n"
    (N.name c) injections seed width samples_per_rung;
  (* The nominal campaign enumerates the strike list the zero-sigma
     corner replays, and picks the TTF reference strike; each sigma rung
     is a whole variation campaign, which runs the nominal campaign
     again for its own report. *)
  let nominal = Campaign.run campaign_config DL.tech c ~drives in
  let sites =
    List.map (fun (v : Campaign.verdict) -> v.Campaign.vd_site) nominal.Campaign.cam_verdicts
  in
  (* Bit-identity anchor: the zero-sigma corner is the empty overlay
     and must reproduce the nominal report byte-for-byte. *)
  let zero =
    let overlay = Sampler.sample Sampler.zero ~seed ~index:0 c in
    Campaign.run
      { campaign_config with Campaign.overlay; sites = Some sites }
      DL.tech c ~drives
  in
  let identical =
    String.equal (Fault_report.to_string nominal) (Fault_report.to_string zero)
    && String.equal (Fault_report.to_text nominal) (Fault_report.to_text zero)
  in
  Printf.printf "zero-sigma corner reproduces the nominal report byte-for-byte: %b\n\n"
    identical;
  (* The sigma ladder: one distribution of masking rates per rung. *)
  Printf.printf "  %-12s %10s %10s %10s %10s %8s\n" "sigma-device" "p5" "p50" "p95" "mean"
    "flips";
  let rungs =
    List.map
      (fun sigma ->
        let report =
          Option.get
            (Variation.run ~log:ignore ~worker_argv:(fun ~range:_ ~journal:_ -> [])
               ~samples:samples_per_rung ~sigmas:(Sampler.sigmas ~device:sigma ())
               ~stress_hours:0. ~ttf:false
               (Driver.Parent { jobs = 1; journal = None })
               campaign_config DL.tech c ~drives)
        in
        let p =
          match Vary_report.masking_percentiles report with
          | Some p -> p
          | None -> invalid_arg "VARY: a rung with zero samples"
        in
        Printf.printf "  %-12.2f %10.3f %10.3f %10.3f %10.3f %8d\n" sigma
          p.Vary_report.pc_p5 p.Vary_report.pc_p50 p.Vary_report.pc_p95 p.Vary_report.pc_mean
          (List.length report.Vary_report.vr_flips);
        (sigma, p, report))
      sigma_ladder
  in
  (* Spread vs sigma: the p95-p5 band of the masking rate must widen
     (weakly) as the sampled spread grows, and the top rung must move
     at least one site's verdict off its nominal outcome. *)
  let band (_, p, _) = p.Vary_report.pc_p95 -. p.Vary_report.pc_p5 in
  let widens =
    match rungs with
    | first :: (_ :: _ as rest) -> band (List.nth rest (List.length rest - 1)) >= band first
    | _ -> false
  in
  let _, _, top = List.nth rungs (List.length rungs - 1) in
  let corner_sites = List.length top.Vary_report.vr_flips in
  (* TTF sweep: age the whole circuit along the virtual-stress ladder
     until an electrically masked reference strike propagates.  Not
     every masked runt is marginal enough to unmask within the ladder,
     so the reference is chosen by probing the masked candidates once
     at the ladder's top age and sweeping the first that fails there. *)
  let max_steps = 20 in
  let h_top = 100. *. (2. ** float_of_int (max_steps - 1)) in
  let probe_site = Sweep.aging_probe campaign_config DL.tech c ~drives in
  let reference =
    List.find_opt
      (fun (v : Campaign.verdict) ->
        v.Campaign.vd_outcome = Campaign.Electrically_masked
        && probe_site v.Campaign.vd_site ~stress_hours:h_top)
      nominal.Campaign.cam_verdicts
  in
  let ttf =
    match reference with
    | None ->
        print_endline
          "\nno electrically masked strike unmasks within the swept range; skipping TTF";
        None
    | Some v ->
        let t = Sweep.run ~max_steps ~probe:(probe_site v.Campaign.vd_site) () in
        (match t.Sweep.sw_ttf with
        | Some h ->
            Printf.printf
              "\nmasked reference strike first propagates at %.1f virtual stress hours \
               (%d probes)\n"
              h
              (List.length t.Sweep.sw_steps)
        | None ->
            Printf.printf "\nreference strike survives the whole swept range (%d probes)\n"
              (List.length t.Sweep.sw_steps));
        t.Sweep.sw_ttf
  in
  let data =
    List.concat_map
      (fun (sigma, p, _) ->
        let tag k = Printf.sprintf "%s_sigma_%.2f" k sigma in
        [
          (tag "masking_mean", p.Vary_report.pc_mean);
          (tag "masking_p5", p.Vary_report.pc_p5);
          (tag "masking_p95", p.Vary_report.pc_p95);
        ])
      rungs
    @ (match ttf with Some h -> [ ("ttf_hours", h) ] | None -> [])
    @ [ ("corner_sensitive_sites", float_of_int corner_sites) ]
  in
  [
    Experiment.make ~exp_id:"VARY"
      ~title:"Monte-Carlo variation & aging campaigns (extension)" ~data
      [
        Experiment.observation ~agrees:identical
          ~metric:"zero-sigma corner is bit-identical to the nominal campaign"
          ~paper:"(the overlay API's identity guarantee)"
          ~measured:(if identical then "byte-identical" else "MISMATCH")
          ();
        Experiment.observation ~agrees:widens
          ~metric:"masking-probability spread widens with parameter spread"
          ~paper:"(process variation turns masking into a distribution)"
          ~measured:
            (String.concat ", "
               (List.map
                  (fun (s, p, _) ->
                    Printf.sprintf "sigma %.2f: p95-p5 %.3f" s
                      (p.Vary_report.pc_p95 -. p.Vary_report.pc_p5))
                  rungs))
          ();
        Experiment.observation
          ~agrees:(corner_sites > 0)
          ~metric:"corner-sensitive strike sites exist"
          ~paper:"(marginal pulses die or survive depending on the corner)"
          ~measured:
            (Printf.sprintf "%d of %d sites flip at sigma %.2f" corner_sites injections
               (List.nth sigma_ladder (List.length sigma_ladder - 1)))
          ();
        Experiment.observation
          ~agrees:(ttf <> None)
          ~metric:"aging sweep converges to a time-to-failure"
          ~paper:"(degradation-window decay eventually unmasks a marginal SET)"
          ~measured:
            (match ttf with
            | Some h -> Printf.sprintf "first failure at %.1f virtual stress hours" h
            | None -> "no failure within the swept range")
          ();
      ];
  ]
