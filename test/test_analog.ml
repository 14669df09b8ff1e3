(* Tests for Halotis_analog: macromodel algebra and transient runs. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Macromodel = Halotis_analog.Macromodel
module Sim = Halotis_analog.Sim
module Drive = Halotis_engine.Drive
module D = Halotis_wave.Digital
module T = Halotis_wave.Transition
module DL = Halotis_tech.Default_lib
module Loads = Halotis_delay.Loads
module Gate_kind = Halotis_logic.Gate_kind

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-6)) msg
let sid c n =
  match N.find_signal c n with Some s -> s | None -> Alcotest.failf "no signal %s" n

(* [(vmin, vmax)] of a trace's samples inside a window: runt amplitude
   probing. *)
let peak_in (tr : Sim.trace) ~t0 ~t1 =
  let n = Array.length tr.Sim.volts in
  let i0 = max 0 (int_of_float (Float.floor (t0 /. tr.Sim.sample_dt))) in
  let i1 = min (n - 1) (int_of_float (Float.ceil (t1 /. tr.Sim.sample_dt))) in
  let vmin = ref infinity and vmax = ref neg_infinity in
  for i = i0 to i1 do
    vmin := Float.min !vmin tr.Sim.volts.(i);
    vmax := Float.max !vmax tr.Sim.volts.(i)
  done;
  if !vmin > !vmax then (0., 0.) else (!vmin, !vmax)

(* A macromodel of [kind] with every pin centred on [vt]: the fuzzy
   extension [F] is reached through {!Macromodel.goal_voltage}. *)
let model ?(switch_width = 0.5) ?(vt = 2.5) kind =
  {
    Macromodel.kind;
    vt = Array.make (Gate_kind.arity kind) vt;
    switch_width;
    tau_rise = 1.;
    tau_fall = 1.;
    transport = 0.;
    vdd = 5.;
  }

(* --- fuzzy logic --- *)

(* A sigmoid width far below the rail-to-VT distance saturates every
   activation to exactly 0 or 1. *)
let prop_fuzzy_matches_bool =
  let kind_gen = QCheck.Gen.oneofl Gate_kind.all_basic in
  QCheck.Test.make ~name:"fuzzy_eval = eval_bool on {0,1}" ~count:500
    (QCheck.make QCheck.Gen.(pair kind_gen (list_size (return 4) bool)))
    (fun (kind, bits) ->
      let n = Gate_kind.arity kind in
      let bools = Array.sub (Array.of_list (bits @ [ false; false; false; false ])) 0 n in
      let vins = Array.map (fun b -> if b then 5.0 else 0.0) bools in
      let fuzzy = Macromodel.goal_voltage (model ~switch_width:1e-3 kind) vins /. 5. in
      let expected = if Gate_kind.eval_bool kind bools then 1.0 else 0.0 in
      Float.abs (fuzzy -. expected) < 1e-9)

let prop_fuzzy_within_unit_interval =
  let kind_gen = QCheck.Gen.oneofl Gate_kind.all_basic in
  QCheck.Test.make ~name:"fuzzy_eval stays in [0,1]" ~count:500
    (QCheck.make
       QCheck.Gen.(pair kind_gen (list_size (return 4) (float_range 0. 5.))))
    (fun (kind, vs) ->
      let n = Gate_kind.arity kind in
      let vins = Array.sub (Array.of_list (vs @ [ 0.; 0.; 0.; 0. ])) 0 n in
      let v = Macromodel.goal_voltage (model kind) vins /. 5. in
      v >= -1e-9 && v <= 1. +. 1e-9)

let test_macromodel_of_gate () =
  let f = G.fig1_circuit ~vt_low:1.5 ~vt_high:3.5 () in
  let c = f.G.circuit in
  let loads = Loads.of_netlist DL.tech c in
  let g1 = Fixtures.gate_named c "g1" in
  let m = Macromodel.of_gate DL.tech c ~loads g1 in
  checkf "vt from override" 1.5 m.Macromodel.vt.(0);
  checkb "tau positive" true (m.Macromodel.tau_rise > 0. && m.Macromodel.tau_fall > 0.);
  (* the inverter's smooth input is 1/2 exactly at the threshold *)
  checkf "midpoint" (m.Macromodel.vdd /. 2.) (Macromodel.goal_voltage m [| 1.5 |]);
  checkb "monotone" true
    (Macromodel.goal_voltage m [| 3.0 |] < Macromodel.goal_voltage m [| 1.0 |])

let test_goal_voltage_inverter () =
  let c = G.inverter_chain ~n:1 () in
  let loads = Loads.of_netlist DL.tech c in
  let m = Macromodel.of_gate DL.tech c ~loads 0 in
  checkb "in low -> goal high" true (Macromodel.goal_voltage m [| 0. |] > 4.9);
  checkb "in high -> goal low" true (Macromodel.goal_voltage m [| 5. |] < 0.1);
  let d = Macromodel.derivative m ~v_out:0. ~v_goal:5. in
  checkb "pulls up" true (d > 0.);
  let d2 = Macromodel.derivative m ~v_out:5. ~v_goal:0. in
  checkb "pulls down" true (d2 < 0.)

(* --- transient --- *)

let test_dc_settling () =
  let c = G.inverter_chain ~n:2 () in
  let r =
    Sim.run (Sim.config ~t_stop:2000. DL.tech) c
      ~drives:[ (sid c "in", Drive.constant true) ]
  in
  let tr = Sim.trace r "out" in
  checkb "out follows in (two inversions)" true (Sim.value_at tr 1900. > 4.5);
  let tr1 = Sim.trace r "out1" in
  checkb "middle inverted" true (Sim.value_at tr1 1900. < 0.5)

let test_step_response () =
  let c = G.inverter_chain ~n:1 () in
  let drives = [ (sid c "in", Drive.of_levels ~slope:50. ~initial:false [ (500., true) ]) ] in
  let r = Sim.run (Sim.config ~t_stop:3000. DL.tech) c ~drives in
  let tr = Sim.trace r "out" in
  checkb "starts high" true (Sim.value_at tr 100. > 4.5);
  checkb "ends low" true (Sim.value_at tr 2900. < 0.5);
  match Sim.crossings tr ~vt:2.5 with
  | [ e ] ->
      checkb "falling" true (T.equal_polarity e.D.polarity T.Falling);
      checkb "after stimulus" true (e.D.at > 500.);
      checkb "within 1ns" true (e.D.at < 1500.)
  | l -> Alcotest.failf "expected one crossing, got %d" (List.length l)

let test_glitch_degradation_continuous () =
  (* output runt amplitude grows continuously with input pulse width *)
  let c = G.inverter_chain ~n:1 () in
  let peak width =
    let drives = [ (sid c "in", Drive.pulse ~slope:50. ~at:500. ~width ()) ] in
    let r = Sim.run (Sim.config ~t_stop:3000. DL.tech) c ~drives in
    let vmin, _ = peak_in (Sim.trace r "out") ~t0:500. ~t1:2500. in
    5.0 -. vmin (* depth of the downward excursion *)
  in
  let depths = List.map peak [ 30.; 60.; 120.; 240.; 480. ] in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b +. 1e-6 && increasing rest
    | [ _ ] | [] -> true
  in
  checkb "monotone depths" true (increasing depths);
  checkb "narrow barely moves" true (List.nth depths 0 < 2.5);
  checkb "wide reaches rail" true (List.nth depths 4 > 4.5)

let test_threshold_sensitivity_fig1 () =
  (* the same runt is seen by the low-VT inverter and missed by the
     high-VT one: the analog ground truth of Fig. 1 *)
  let f = G.fig1_circuit () in
  let drives = [ (f.G.sig_in, Drive.pulse ~slope:100. ~at:1000. ~width:175. ()) ] in
  let r = Sim.run (Sim.config ~t_stop:8000. DL.tech) f.G.circuit ~drives in
  checki "low-VT branch fires" 2 (List.length (Sim.edges r "out1c"));
  checki "high-VT branch silent" 0 (List.length (Sim.edges r "out2c"))

let test_trace_lookup_errors () =
  let c = G.inverter_chain ~n:1 () in
  let r = Sim.run (Sim.config ~t_stop:100. DL.tech) c ~drives:[] in
  checkb "unknown raises" true
    (try
       ignore (Sim.trace r "zzz");
       false
     with Not_found -> true)

let test_config_validation () =
  checkb "bad dt" true
    (try
       ignore (Sim.config ~dt:0. ~t_stop:10. DL.tech);
       false
     with Invalid_argument _ -> true);
  checkb "bad record_every" true
    (try
       ignore (Sim.config ~record_every:0 ~t_stop:10. DL.tech);
       false
     with Invalid_argument _ -> true)

let test_value_interpolation () =
  let tr = { Sim.sample_dt = 10.; volts = [| 0.; 1.; 2. |] } in
  checkf "exact" 1. (Sim.value_at tr 10.);
  checkf "interp" 0.5 (Sim.value_at tr 5.);
  checkf "clamp low" 0. (Sim.value_at tr (-5.));
  checkf "clamp high" 2. (Sim.value_at tr 100.)

let test_peak_in () =
  let tr = { Sim.sample_dt = 10.; volts = [| 0.; 3.; 1.; 4.; 0. |] } in
  let vmin, vmax = peak_in tr ~t0:0. ~t1:40. in
  checkf "min" 0. vmin;
  checkf "max" 4. vmax;
  let vmin2, vmax2 = peak_in tr ~t0:10. ~t1:20. in
  checkf "window min" 1. vmin2;
  checkf "window max" 3. vmax2

let tests =
  [
    ( "analog.macromodel",
      [
        QCheck_alcotest.to_alcotest prop_fuzzy_matches_bool;
        QCheck_alcotest.to_alcotest prop_fuzzy_within_unit_interval;
        Alcotest.test_case "of_gate" `Quick test_macromodel_of_gate;
        Alcotest.test_case "inverter goal" `Quick test_goal_voltage_inverter;
      ] );
    ( "analog.sim",
      [
        Alcotest.test_case "dc settling" `Quick test_dc_settling;
        Alcotest.test_case "step response" `Quick test_step_response;
        Alcotest.test_case "continuous degradation" `Quick
          test_glitch_degradation_continuous;
        Alcotest.test_case "fig1 threshold sensitivity" `Quick
          test_threshold_sensitivity_fig1;
        Alcotest.test_case "trace lookup" `Quick test_trace_lookup_errors;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "interpolation" `Quick test_value_interpolation;
        Alcotest.test_case "peak_in" `Quick test_peak_in;
      ] );
  ]
