(* Tests for Halotis_cmos: the alpha-power analytical inverter model. *)

module AP = Halotis_cmos.Alpha_power
module Tech = Halotis_tech.Tech
module DL = Halotis_tech.Default_lib
module G = Halotis_netlist.Generators
module N = Halotis_netlist.Netlist
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module D = Halotis_wave.Digital
module Gate_kind = Halotis_logic.Gate_kind

let checkb = Alcotest.(check bool)
let inv = AP.default_inverter

let test_delay_monotone_in_load () =
  let d cl = AP.delay inv ~rising_out:false ~cl ~tau_in:100. in
  checkb "10 < 40" true (d 10. < d 40.);
  checkb "40 < 120" true (d 40. < d 120.)

let test_delay_monotone_in_slope () =
  let d tau_in = AP.delay inv ~rising_out:true ~cl:20. ~tau_in in
  checkb "slower input slower gate" true (d 50. < d 300.)

let test_rise_fall_asymmetry () =
  (* weaker PMOS: rising output slower than falling *)
  checkb "rise slower" true
    (AP.delay inv ~rising_out:true ~cl:20. ~tau_in:100.
    > AP.delay inv ~rising_out:false ~cl:20. ~tau_in:100.);
  checkb "rise ramp longer" true
    (AP.output_slope inv ~rising_out:true ~cl:20. > AP.output_slope inv ~rising_out:false ~cl:20.)

let test_supply_scaling () =
  (* lower Vdd -> smaller gate overdrive... in this first-order model
     the charge term shrinks with Vdd (same drive current) *)
  let low = { inv with AP.vdd = 3.3 } in
  checkb "charge term scales with vdd" true
    (AP.delay low ~rising_out:false ~cl:30. ~tau_in:0.
    < AP.delay inv ~rising_out:false ~cl:30. ~tau_in:0.)

let test_edge_params_match_closed_form () =
  (* unit sizing: every cell of the derived technology is [inv] itself *)
  let tech = AP.to_tech ~base:DL.tech inv ~sized:(fun _ -> 1.0) in
  let p = Tech.edge (Tech.gate_tech tech Gate_kind.Inv) ~rising:false in
  List.iter
    (fun (cl, tau_in) ->
      let direct = AP.delay inv ~rising_out:false ~cl ~tau_in in
      let via_params = Tech.base_delay p ~pin_factor:1.0 ~cl ~tau_in in
      checkb
        (Printf.sprintf "cl=%.0f tau=%.0f" cl tau_in)
        true
        (Float.abs (direct -. via_params) < 1e-9))
    [ (5., 50.); (20., 100.); (60., 250.) ]

let test_to_tech_simulates () =
  (* the derived technology drives the full engine *)
  let tech =
    AP.to_tech ~base:DL.tech AP.default_inverter ~sized:AP.default_sizing
  in
  let c = G.inverter_chain ~n:3 () in
  let input = match N.find_signal c "in" with Some s -> s | None -> assert false in
  let r =
    Iddm.run (Iddm.config tech) c
      ~drives:[ (input, Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ]
  in
  checkb "propagates" true (D.edge_count (Iddm.waveform r "out") ~vt:2.5 = 1);
  (* stack sizing: nand slower than inverter under the same load *)
  let gt k = Tech.gate_tech tech k in
  checkb "nand derated" true
    ((gt (Gate_kind.Nand 2)).Tech.fall.Tech.d_load > (gt Gate_kind.Inv).Tech.fall.Tech.d_load)

let test_degradation_kept_from_base () =
  let tech = AP.to_tech ~base:DL.tech AP.default_inverter ~sized:AP.default_sizing in
  let p0 = (Tech.gate_tech DL.tech Gate_kind.Inv).Tech.rise in
  let p1 = (Tech.gate_tech tech Gate_kind.Inv).Tech.rise in
  Alcotest.(check (float 1e-9)) "ddm_a" p0.Tech.ddm_a p1.Tech.ddm_a;
  Alcotest.(check (float 1e-9)) "ddm_c" p0.Tech.ddm_c p1.Tech.ddm_c

let tests =
  [
    ( "cmos.alpha_power",
      [
        Alcotest.test_case "load monotone" `Quick test_delay_monotone_in_load;
        Alcotest.test_case "slope monotone" `Quick test_delay_monotone_in_slope;
        Alcotest.test_case "rise/fall asymmetry" `Quick test_rise_fall_asymmetry;
        Alcotest.test_case "supply scaling" `Quick test_supply_scaling;
        Alcotest.test_case "closed form = params" `Quick test_edge_params_match_closed_form;
        Alcotest.test_case "derived tech simulates" `Quick test_to_tech_simulates;
        Alcotest.test_case "ddm kept" `Quick test_degradation_kept_from_base;
      ] );
  ]
