(* Tests for Halotis_power: activity counting and energy estimates. *)

module G = Halotis_netlist.Generators
module N = Halotis_netlist.Netlist
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module Act = Halotis_power.Activity
module Energy = Halotis_power.Energy
module Glitch = Halotis_power.Glitch
module W = Halotis_wave.Waveform
module T = Halotis_wave.Transition
module DL = Halotis_tech.Default_lib
module DM = Halotis_delay.Delay_model
module V = Halotis_stim.Vectors

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let sid c n = match N.find_signal c n with Some s -> s | None -> assert false

let chain_run () =
  let c = G.inverter_chain ~n:3 () in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  Iddm.run (Iddm.config DL.tech) c ~drives

let test_activity_step () =
  let r = chain_run () in
  let report = Act.of_iddm r in
  (* in + out1 + out2 + out each switch once *)
  checki "total" 4 report.Act.total_transitions;
  checki "signals listed" 4 (Array.length report.Act.per_signal);
  checki "no complete pulses" 0 report.Act.full_pulses;
  Alcotest.(check string) "label" "IDDM/DDM" report.Act.engine_label

let test_overestimation () =
  let mk total = { Act.total_transitions = total; per_signal = [||]; full_pulses = 0; engine_label = "x" } in
  Alcotest.(check (float 1e-9)) "47%" 47.
    (Act.overestimation_pct ~reference:(mk 100) ~candidate:(mk 147));
  Alcotest.(check (float 1e-9)) "zero ref" 0.
    (Act.overestimation_pct ~reference:(mk 0) ~candidate:(mk 10))

let test_busiest () =
  let report =
    {
      Act.total_transitions = 6;
      per_signal = [| ("a", 1); ("b", 3); ("c", 2) |];
      full_pulses = 0;
      engine_label = "x";
    }
  in
  Alcotest.(check (list (pair string int))) "top2" [ ("b", 3); ("c", 2) ] (Act.busiest report ~n:2)

let test_cdm_overestimates_on_multiplier () =
  let m = G.array_multiplier ~nand_only:true ~m:4 ~n:4 () in
  let c = m.G.mult_circuit in
  let drives =
    V.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits
      V.paper_sequence_b
  in
  let rd = Iddm.run (Iddm.config DL.tech) c ~drives in
  let rc = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) c ~drives in
  let actd = Act.of_iddm rd and actc = Act.of_iddm rc in
  let over = Act.overestimation_pct ~reference:actd ~candidate:actc in
  checkb "CDM counts more switching" true (over > 5.);
  Alcotest.(check string) "cdm label" "IDDM/CDM" actc.Act.engine_label

let test_energy () =
  let r = chain_run () in
  let report = Act.of_iddm r in
  let est = Energy.of_report DL.tech r.Iddm.circuit report in
  checkb "positive" true (est.Energy.total_fj > 0.);
  (* energy is additive over the per-signal entries *)
  let sum = Array.fold_left (fun acc (_, e) -> acc +. e) 0. est.Energy.per_signal_fj in
  Alcotest.(check (float 1e-9)) "additive" est.Energy.total_fj sum;
  (* a silent circuit burns nothing *)
  let c = G.inverter_chain ~n:3 () in
  let rq = Iddm.run (Iddm.config DL.tech) c ~drives:[ (sid c "in", Drive.constant true) ] in
  let est0 = Energy.of_report DL.tech c (Act.of_iddm rq) in
  Alcotest.(check (float 1e-9)) "zero" 0. est0.Energy.total_fj

let test_energy_savings () =
  let mk total = { Energy.total_fj = total; per_signal_fj = [||]; label = "x" } in
  Alcotest.(check (float 1e-9)) "20%" 20. (Energy.savings_pct ~reference:(mk 100.) ~candidate:(mk 120.));
  Alcotest.(check (float 1e-9)) "zero ref" 0. (Energy.savings_pct ~reference:(mk 0.) ~candidate:(mk 5.))

(* --- Glitch --- *)

let pulse_train widths =
  let w = W.create ~vdd:5. () in
  let t = ref 1000. in
  List.iter
    (fun width ->
      ignore (W.append w (T.make ~start:!t ~slope_time:50. ~polarity:T.Rising));
      ignore (W.append w (T.make ~start:(!t +. width) ~slope_time:50. ~polarity:T.Falling));
      t := !t +. width +. 500.)
    widths;
  w

let test_histogram () =
  let w = pulse_train [ 120.; 130.; 350.; 2000. ] in
  let h = Glitch.pulse_width_histogram ~vt:2.5 [| w |] in
  checki "bucket 1 (100-200)" 2 h.Glitch.counts.(1);
  checki "bucket 3 (300-400)" 1 h.Glitch.counts.(3);
  checki "overflow" 1 h.Glitch.overflow;
  checkb "pp renders" true
    (String.length (Format.asprintf "%a" Glitch.pp_histogram h) > 10)

let test_classify () =
  (* one period: three edges -> one settling edge + one glitch pulse *)
  let w = W.create ~vdd:5. () in
  List.iter
    (fun (t, pol) -> ignore (W.append w (T.make ~start:t ~slope_time:50. ~polarity:pol)))
    [ (1000., T.Rising); (1400., T.Falling); (2000., T.Rising) ];
  let r = Glitch.classify ~period:5000. ~vt:2.5 [| w |] in
  checki "functional" 1 r.Glitch.functional_edges;
  checki "glitches" 1 r.Glitch.glitch_pulses;
  Alcotest.(check (float 1e-9)) "fraction" (2. /. 3.) r.Glitch.glitch_energy_fraction

let test_classify_clean_signal () =
  let w = W.create ~vdd:5. () in
  ignore (W.append w (T.make ~start:1000. ~slope_time:50. ~polarity:T.Rising));
  let r = Glitch.classify ~period:5000. ~vt:2.5 [| w |] in
  checki "functional" 1 r.Glitch.functional_edges;
  checki "no glitches" 0 r.Glitch.glitch_pulses;
  Alcotest.(check (float 1e-9)) "fraction" 0. r.Glitch.glitch_energy_fraction

let test_classify_bad_period () =
  checkb "raises" true
    (try
       ignore (Glitch.classify ~period:0. ~vt:2.5 [||]);
       false
     with Invalid_argument _ -> true)

let test_glitch_cdm_vs_ddm () =
  (* CDM keeps more hazard pulses alive than DDM on the paper workload *)
  let m = G.array_multiplier ~m:4 ~n:4 () in
  let drives =
    V.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits
      V.paper_sequence_b
  in
  let rd = Iddm.run (Iddm.config DL.tech) m.G.mult_circuit ~drives in
  let rc = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) m.G.mult_circuit ~drives in
  let gd = Glitch.classify ~period:5000. ~vt:2.5 rd.Iddm.waveforms in
  let gc = Glitch.classify ~period:5000. ~vt:2.5 rc.Iddm.waveforms in
  checkb "cdm more glitch pulses" true (gc.Glitch.glitch_pulses > gd.Glitch.glitch_pulses)

let tests =
  [
    ( "power.glitch",
      [
        Alcotest.test_case "histogram" `Quick test_histogram;
        Alcotest.test_case "classify" `Quick test_classify;
        Alcotest.test_case "clean signal" `Quick test_classify_clean_signal;
        Alcotest.test_case "bad period" `Quick test_classify_bad_period;
        Alcotest.test_case "cdm vs ddm" `Quick test_glitch_cdm_vs_ddm;
      ] );
    ( "power.activity",
      [
        Alcotest.test_case "step counts" `Quick test_activity_step;
        Alcotest.test_case "overestimation pct" `Quick test_overestimation;
        Alcotest.test_case "busiest" `Quick test_busiest;
        Alcotest.test_case "cdm overestimates" `Quick test_cdm_overestimates_on_multiplier;
      ] );
    ( "power.energy",
      [
        Alcotest.test_case "cv2 accounting" `Quick test_energy;
        Alcotest.test_case "savings pct" `Quick test_energy_savings;
      ] );
  ]
