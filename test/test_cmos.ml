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

(* The alpha-power closed form, straight from the device parameters:
   input-slope term plus charge-displacement term, and the full-swing
   output ramp.  [cl] in fF, results in ps. *)
let closed_form_delay (inv : AP.inverter) ~rising_out ~cl ~tau_in =
  let dev = if rising_out then inv.AP.pmos else inv.AP.nmos in
  let vthn = dev.AP.vth /. inv.AP.vdd in
  let slope_coefficient = Float.max 0. (0.5 -. ((1. -. vthn) /. (1. +. dev.AP.alpha))) in
  (slope_coefficient *. tau_in)
  +. ((cl +. inv.AP.c_intrinsic) *. inv.AP.vdd /. (2. *. dev.AP.i_d0))

let closed_form_slope (inv : AP.inverter) ~rising_out ~cl =
  let dev = if rising_out then inv.AP.pmos else inv.AP.nmos in
  Float.max 1.0 (1.5 *. (cl +. inv.AP.c_intrinsic) *. inv.AP.vdd /. dev.AP.i_d0)

(* The derived technology's inverter edge: every cell is [inv] itself. *)
let edge inv ~rising_out =
  let tech = AP.to_tech ~base:DL.tech inv ~sized:(fun _ -> 1.0) in
  Tech.edge (Tech.gate_tech tech Gate_kind.Inv) ~rising:rising_out

let delay inv ~rising_out ~cl ~tau_in =
  Tech.base_delay (edge inv ~rising_out) ~pin_factor:1.0 ~cl ~tau_in

let output_slope inv ~rising_out ~cl = Tech.output_slope (edge inv ~rising_out) ~cl

let test_delay_monotone_in_load () =
  let d cl = delay inv ~rising_out:false ~cl ~tau_in:100. in
  checkb "10 < 40" true (d 10. < d 40.);
  checkb "40 < 120" true (d 40. < d 120.)

let test_delay_monotone_in_slope () =
  let d tau_in = delay inv ~rising_out:true ~cl:20. ~tau_in in
  checkb "slower input slower gate" true (d 50. < d 300.)

let test_rise_fall_asymmetry () =
  (* weaker PMOS: rising output slower than falling *)
  checkb "rise slower" true
    (delay inv ~rising_out:true ~cl:20. ~tau_in:100.
    > delay inv ~rising_out:false ~cl:20. ~tau_in:100.);
  checkb "rise ramp longer" true
    (output_slope inv ~rising_out:true ~cl:20. > output_slope inv ~rising_out:false ~cl:20.)

let test_supply_scaling () =
  (* lower Vdd -> smaller gate overdrive... in this first-order model
     the charge term shrinks with Vdd (same drive current) *)
  let low = { inv with AP.vdd = 3.3 } in
  checkb "charge term scales with vdd" true
    (delay low ~rising_out:false ~cl:30. ~tau_in:0.
    < delay inv ~rising_out:false ~cl:30. ~tau_in:0.)

let test_edge_params_match_closed_form () =
  (* unit sizing: every cell of the derived technology is [inv] itself *)
  List.iter
    (fun (rising_out, cl, tau_in) ->
      let label = Printf.sprintf "rising=%b cl=%.0f tau=%.0f" rising_out cl tau_in in
      checkb (label ^ " delay") true
        (Float.abs
           (closed_form_delay inv ~rising_out ~cl ~tau_in -. delay inv ~rising_out ~cl ~tau_in)
        < 1e-9);
      checkb (label ^ " slope") true
        (Float.abs (closed_form_slope inv ~rising_out ~cl -. output_slope inv ~rising_out ~cl)
        < 1e-9))
    [ (false, 5., 50.); (false, 20., 100.); (true, 60., 250.) ]

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
