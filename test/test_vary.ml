(* The Monte-Carlo variation & aging workload: hierarchical corner
   sampling, the aging law, TTF sweeps, and the vary report.

   The load-bearing property is the bit-identity ladder: a zero-sigma,
   zero-stress vary sample is the empty overlay, the empty overlay
   reproduces the plain faults campaign byte-for-byte (reports AND
   journals), and a fixed seed reproduces the whole distribution —
   serial or supervised across workers. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Drive = Halotis_engine.Drive
module Sim = Halotis_engine.Sim
module Compiled = Halotis_engine.Compiled
module DL = Halotis_tech.Default_lib
module Overlay = Halotis_tech.Param_overlay
module Campaign = Halotis_fault.Campaign
module Journal = Halotis_fault.Journal
module Fault_report = Halotis_fault.Fault_report
module Circuit_cache = Halotis_serve.Circuit_cache
module Sampler = Halotis_vary.Sampler
module Aging = Halotis_vary.Aging
module Sweep = Halotis_vary.Sweep
module Vary_report = Halotis_vary.Vary_report

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let sid c n =
  match N.find_signal c n with Some s -> s | None -> Alcotest.failf "no signal %s" n

let chain = lazy (G.inverter_chain ~n:4 ())

(* ------------------------------------------------------------------ *)
(* Sampler                                                            *)
(* ------------------------------------------------------------------ *)

let test_sampler_zero_sigma_empty () =
  let c = Lazy.force chain in
  checkb "zero sigma, zero stress is the empty overlay" true
    (Overlay.is_empty (Sampler.sample Sampler.zero ~seed:3 ~index:0 c));
  (* zero sigma with stress degenerates to the pure aging overlay *)
  let aged = Sampler.sample ~stress_hours:5000. Sampler.zero ~seed:3 ~index:0 c in
  checkb "zero sigma with stress is Aging.overlay" true
    (Overlay.equal aged (Aging.overlay ~stress_hours:5000. ~gates:(N.gate_count c)))

let test_sampler_validation () =
  let c = Lazy.force chain in
  checkb "negative index raises" true
    (try
       ignore (Sampler.sample Sampler.zero ~seed:1 ~index:(-1) c);
       false
     with Invalid_argument _ -> true);
  checkb "negative sigma raises" true
    (try
       ignore (Sampler.sigmas ~device:(-0.1) ());
       false
     with Invalid_argument _ -> true)

let prop_sampler_deterministic =
  (* same (seed, index) must rebuild the identical corner — across
     calls, which stands in for across processes (the CLI workers
     resample rather than serialize overlays) *)
  QCheck.Test.make ~name:"sampler is a pure function of (seed, index)" ~count:30
    QCheck.(pair (int_range 0 1000) (int_range 0 63))
    (fun (seed, index) ->
      let c = Lazy.force chain in
      let sg = Sampler.sigmas ~device:0.1 ~chip:0.05 ~lot:0.02 () in
      let a = Sampler.sample sg ~seed ~index c in
      let b = Sampler.sample sg ~seed ~index c in
      Overlay.equal a b && Overlay.fingerprint a = Overlay.fingerprint b)

let test_sampler_distinct_corners () =
  let c = Lazy.force chain in
  let sg = Sampler.sigmas ~device:0.1 () in
  let fp i = Overlay.fingerprint (Sampler.sample sg ~seed:7 ~index:i c) in
  checkb "different samples land on different corners" true (fp 0 <> fp 1);
  let fp' i = Overlay.fingerprint (Sampler.sample sg ~seed:8 ~index:i c) in
  checkb "different seeds land on different corners" true (fp 0 <> fp' 0)

let test_sampler_covers_all_gates () =
  let c = Lazy.force chain in
  let sg = Sampler.sigmas ~device:0.1 () in
  checki "every gate gets a corner" (N.gate_count c)
    (Overlay.cardinal (Sampler.sample sg ~seed:7 ~index:0 c))

(* ------------------------------------------------------------------ *)
(* Aging                                                              *)
(* ------------------------------------------------------------------ *)

let test_aging_identity_at_zero () =
  checkb "scale is exactly 1.0" true (Aging.scale ~stress_hours:0. = 1.0);
  checkb "vt_scale is exactly 1.0" true (Aging.vt_scale ~stress_hours:0. = 1.0);
  checkb "overlay is exactly empty" true
    (Overlay.is_empty (Aging.overlay ~stress_hours:0. ~gates:5));
  checkb "age_scale is the physical identity" true
    (Overlay.scale_is_identity (Aging.age_scale ~stress_hours:0. Overlay.scale_identity))

let test_aging_shifts () =
  let s = Aging.age_scale ~stress_hours:10000. Overlay.scale_identity in
  checkb "ddm window shrinks" true (s.Overlay.sc_ddm_a < 1.0);
  checkb "ddm_b shrinks identically" true (s.Overlay.sc_ddm_b = s.Overlay.sc_ddm_a);
  checkb "ddm_c untouched" true (s.Overlay.sc_ddm_c = 1.0);
  checkb "conventional delay slows" true (s.Overlay.sc_d0 > 1.0);
  (* the asymmetry that makes TTF sweeps converge: the window decays an
     order of magnitude faster than the gate slows *)
  checkb "window decay dominates slowdown" true
    (1.0 /. s.Overlay.sc_ddm_a -. 1.0 > 5.0 *. (s.Overlay.sc_d0 -. 1.0));
  checkb "threshold drifts toward ground" true (Aging.vt_scale ~stress_hours:10000. < 1.0);
  checkb "scale is monotone in stress" true
    (Aging.scale ~stress_hours:1000. < Aging.scale ~stress_hours:2000.)

(* ------------------------------------------------------------------ *)
(* Sweep                                                              *)
(* ------------------------------------------------------------------ *)

let test_sweep_brackets_threshold () =
  (* A monotone synthetic probe: fails at 1234 h and beyond.  The sweep
     must bracket and refine the boundary from above. *)
  let t = Sweep.run ~probe:(fun ~stress_hours -> stress_hours >= 1234.) () in
  match t.Sweep.sw_ttf with
  | None -> Alcotest.fail "sweep missed the threshold"
  | Some ttf ->
      checkb "ttf is a failing age" true (ttf >= 1234.);
      checkb "refinement tightened the first ladder bracket" true (ttf < 1600.);
      checkb "a surviving probe below the ttf was recorded" true
        (List.exists (fun s -> (not s.Sweep.sw_failed) && s.Sweep.sw_hours < ttf) t.Sweep.sw_steps);
      checkb "steps agree with the probe" true
        (List.for_all (fun s -> s.Sweep.sw_failed = (s.Sweep.sw_hours >= 1234.)) t.Sweep.sw_steps)

let test_sweep_never_fails () =
  let t = Sweep.run ~max_steps:6 ~probe:(fun ~stress_hours:_ -> false) () in
  checkb "no ttf when nothing fails" true (t.Sweep.sw_ttf = None);
  checki "ladder exhausted" 6 (List.length t.Sweep.sw_steps)

let test_sweep_deterministic () =
  let probe ~stress_hours = stress_hours >= 777. in
  let a = Sweep.run ~probe () and b = Sweep.run ~probe () in
  checkb "identical trajectories" true (a = b)

(* ------------------------------------------------------------------ *)
(* Bit-identity: zero-sigma vary sample == plain faults campaign      *)
(* ------------------------------------------------------------------ *)

let journal_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let run_with_journal cfg c ~drives =
  let path = Filename.temp_file "halotis-test-vary" ".journal" in
  let w = Journal.open_new path (Journal.header_of ~circuit:(N.name c) cfg) in
  let t = Campaign.run ~on_verdict:(fun i v -> Journal.write w i v) cfg DL.tech c ~drives in
  Journal.close w;
  let bytes = journal_bytes path in
  Sys.remove path;
  (t, bytes)

let test_zero_sigma_bit_identity engine () =
  let c = Lazy.force chain in
  let drives = [ (sid c "in", Drive.constant false) ] in
  let cfg = Campaign.config ~engine ~seed:5 ~n:10 ~t_stop:8000. () in
  let overlay = Sampler.sample Sampler.zero ~seed:5 ~index:0 c in
  let plain, plain_j = run_with_journal cfg c ~drives in
  let vary, vary_j = run_with_journal { cfg with Campaign.overlay } c ~drives in
  checks "reports byte-identical (machine)" (Fault_report.to_string plain)
    (Fault_report.to_string vary);
  checks "reports byte-identical (text)" (Fault_report.to_text plain)
    (Fault_report.to_text vary);
  checks "journals byte-identical" plain_j vary_j

let test_vary_report_deterministic () =
  (* Fixed seed, real spread: the whole distribution report must
     reproduce byte-for-byte. *)
  let c = Lazy.force chain in
  let drives = [ (sid c "in", Drive.constant false) ] in
  let cfg = Campaign.config ~engine:Campaign.Ddm ~seed:11 ~n:8 ~t_stop:8000. () in
  let build () =
    let nominal = Campaign.run cfg DL.tech c ~drives in
    let sites = List.map (fun v -> v.Campaign.vd_site) nominal.Campaign.cam_verdicts in
    let sg = Sampler.sigmas ~device:0.2 ~chip:0.05 () in
    let samples =
      List.map
        (fun k ->
          let overlay = Sampler.sample sg ~seed:11 ~index:k c in
          let t =
            Campaign.run
              { cfg with Campaign.overlay; sites = Some sites }
              DL.tech c ~drives
          in
          (k, Overlay.fingerprint overlay, t.Campaign.cam_verdicts))
        [ 0; 1; 2 ]
    in
    Vary_report.make ~circuit:(N.name c) ~engine:"ddm" ~seed:11 ~sigmas:sg
      ~stress_hours:0. ~nominal:nominal.Campaign.cam_verdicts ~samples ()
  in
  let a = build () and b = build () in
  checks "json reports byte-identical" (Vary_report.to_string a) (Vary_report.to_string b);
  checks "text reports byte-identical" (Vary_report.to_text a) (Vary_report.to_text b);
  checki "three samples tallied" 3 (List.length a.Vary_report.vr_samples);
  checkb "nominal owns index -1" true (a.Vary_report.vr_nominal.Vary_report.vs_index = -1)

let test_percentiles () =
  checkb "empty list has no percentiles" true (Vary_report.percentiles [] = None);
  match Vary_report.percentiles [ 0.3; 0.1; 0.2 ] with
  | None -> Alcotest.fail "non-empty list must summarize"
  | Some p ->
      checkb "median" true (p.Vary_report.pc_p50 = 0.2);
      checkb "p5 is the min" true (p.Vary_report.pc_p5 = 0.1);
      checkb "p95 is the max" true (p.Vary_report.pc_p95 = 0.3);
      checkb "mean" true (abs_float (p.Vary_report.pc_mean -. 0.2) < 1e-12)

(* ------------------------------------------------------------------ *)
(* Serve: overlay corners never alias a compiled-circuit cache entry  *)
(* ------------------------------------------------------------------ *)

let test_cache_overlay_isolation () =
  let source = "circuit t\ninput x y\noutput o\ngate g nand2 o x y\nend" in
  let corner =
    Overlay.set Overlay.empty ~gate:0
      { Overlay.entry_identity with Overlay.en_vt = 0.9 }
  in
  let key ov = Circuit_cache.key_of_source source ^ "\x00" ^ Overlay.fingerprint ov in
  checkb "corner fingerprint differs from nominal" true
    (Overlay.fingerprint corner <> Overlay.empty_fingerprint);
  checkb "corner keys a different cache slot" true (key Overlay.empty <> key corner);
  let cache = Circuit_cache.create ~capacity:4 in
  let c =
    match Halotis_netlist.Hnl.parse_string source with
    | Ok c -> c
    | Error _ -> Alcotest.fail "tiny circuit did not parse"
  in
  let load ov =
    Circuit_cache.find_or_compile cache ~key:(key ov)
      ~compile:(fun () -> Compiled.compile ~overlay:ov DL.tech c)
  in
  let _, hit_nominal = load Overlay.empty in
  let compiled, hit_corner = load corner in
  checkb "nominal load misses" false hit_nominal;
  checkb "corner load misses too — no aliasing" false hit_corner;
  checki "both corners cached" 2 (Circuit_cache.entries cache);
  checkb "cached entry carries its overlay" true
    (Overlay.equal compiled.Compiled.overlay corner);
  let _, hit_again = load corner in
  checkb "same corner hits" true hit_again

(* ------------------------------------------------------------------ *)
(* CLI: serial / supervised / faults crosschecks on c17               *)
(* ------------------------------------------------------------------ *)

let build_root = Filename.concat (Filename.dirname Sys.executable_name) ".."
let exe = Filename.concat build_root (Filename.concat "bin" "halotis_cli.exe")

let data f =
  Filename.concat build_root
    (Filename.concat "examples" (Filename.concat "data" f))

let run_capture args =
  let out = Filename.temp_file "halotis_vary_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let status = Sys.command cmd in
  let stdout = journal_bytes out in
  Sys.remove out;
  (status, stdout)

(* One small workload shared by the CLI tests: c17 at width 60 has both
   propagated and electrically masked strikes. *)
let vary_args more =
  [
    "vary"; data "c17.hnl"; "--stim"; data "c17_walk.hsv"; "-n"; "6"; "--seed"; "7";
    "--width"; "60"; "--samples"; "3"; "--sigma-device"; "0.15";
  ]
  @ more

let test_cli_jobs_identical () =
  let st1, serial = run_capture (vary_args []) in
  let st2, supervised = run_capture (vary_args [ "--jobs"; "2" ]) in
  checki "serial run exits 0" 0 st1;
  checki "supervised run exits 0" 0 st2;
  checks "worker supervision changes no output byte" serial supervised

let test_cli_negative_jobs_rejected () =
  let st, out = run_capture (vary_args [ "--jobs=-3" ]) in
  checki "negative --jobs is a usage error" 1 st;
  checks "no report is rendered" "" out

let test_cli_fixed_seed_golden () =
  let _, a = run_capture (vary_args [ "--format"; "json" ]) in
  let _, b = run_capture (vary_args [ "--format"; "json" ]) in
  checks "fixed seed reproduces the distribution byte-for-byte" a b;
  checkb "report is the vary schema" true
    (try
       String.length a > 0
       &&
       match Halotis_util.Json.parse a with
       | Ok j -> Halotis_util.Json.member "tool" j = Some (Halotis_util.Json.Str "halotis-vary")
       | Error _ -> false
     with _ -> false)

let test_cli_zero_sigma_journal_matches_faults () =
  let vbase = Filename.temp_file "halotis-vary-j" "" in
  let fpath = Filename.temp_file "halotis-faults-j" ".journal" in
  let common =
    [ data "c17.hnl"; "--stim"; data "c17_walk.hsv"; "-n"; "6"; "--seed"; "7"; "--width"; "60" ]
  in
  let stv, _ =
    run_capture
      ([ "vary" ] @ common
      @ [ "--samples"; "1"; "--sigma-device"; "0"; "--journal"; vbase ])
  in
  let stf, _ = run_capture ([ "faults" ] @ common @ [ "--journal"; fpath ]) in
  checki "vary exits 0" 0 stv;
  checki "faults exits 0" 0 stf;
  let vj = journal_bytes (vbase ^ ".s0") and fj = journal_bytes fpath in
  Sys.remove (vbase ^ ".s0");
  Sys.remove vbase;
  Sys.remove fpath;
  checks "zero-sigma sample journal byte-identical to plain faults" fj vj

let tests =
  [
    ( "vary",
      [
        Alcotest.test_case "sampler: zero sigma is empty" `Quick test_sampler_zero_sigma_empty;
        Alcotest.test_case "sampler: validation" `Quick test_sampler_validation;
        QCheck_alcotest.to_alcotest prop_sampler_deterministic;
        Alcotest.test_case "sampler: distinct corners" `Quick test_sampler_distinct_corners;
        Alcotest.test_case "sampler: covers all gates" `Quick test_sampler_covers_all_gates;
        Alcotest.test_case "aging: identity at zero stress" `Quick test_aging_identity_at_zero;
        Alcotest.test_case "aging: asymmetric shifts" `Quick test_aging_shifts;
        Alcotest.test_case "sweep: brackets the threshold" `Quick test_sweep_brackets_threshold;
        Alcotest.test_case "sweep: no failure, no ttf" `Quick test_sweep_never_fails;
        Alcotest.test_case "sweep: deterministic" `Quick test_sweep_deterministic;
        Alcotest.test_case "zero-sigma bit-identity (ddm)" `Quick
          (test_zero_sigma_bit_identity Campaign.Ddm);
        Alcotest.test_case "zero-sigma bit-identity (cdm)" `Quick
          (test_zero_sigma_bit_identity Campaign.Cdm);
        Alcotest.test_case "report: fixed-seed determinism" `Slow test_vary_report_deterministic;
        Alcotest.test_case "report: percentiles" `Quick test_percentiles;
        Alcotest.test_case "serve: overlay cache isolation" `Quick test_cache_overlay_isolation;
        Alcotest.test_case "cli: negative --jobs rejected" `Quick
          test_cli_negative_jobs_rejected;
        Alcotest.test_case "cli: fixed-seed golden" `Slow test_cli_fixed_seed_golden;
        Alcotest.test_case "cli: --jobs 2 byte-identical" `Slow test_cli_jobs_identical;
        Alcotest.test_case "cli: zero-sigma journal == faults" `Slow
          test_cli_zero_sigma_journal_matches_faults;
      ] );
  ]
