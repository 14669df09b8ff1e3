(* Cross-module integration tests: the three engines against each other
   on the paper's circuits. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Hnl = Halotis_netlist.Hnl
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module D = Halotis_wave.Digital
module DL = Halotis_tech.Default_lib
module DM = Halotis_delay.Delay_model
module Sim = Halotis_analog.Sim
module V = Halotis_stim.Vectors
module Act = Halotis_power.Activity

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let sid c n = match N.find_signal c n with Some s -> s | None -> assert false

let mult = lazy (G.array_multiplier ~nand_only:false ~m:4 ~n:4 ())

let drives_for ops =
  let m = Lazy.force mult in
  V.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits ops

let product_of_levels level_of =
  let m = Lazy.force mult in
  List.fold_left
    (fun acc (i, s) -> if level_of s then acc lor (1 lsl i) else acc)
    0
    (List.mapi (fun i s -> (i, s)) m.G.product_bits)

(* The settled product just before each next vector is applied must be
   the arithmetic product, in *every* engine. *)
let check_settled_products ops level_at_time =
  List.iteri
    (fun k op ->
      let t_settle = (float_of_int (k + 1) *. 5000.) -. 1. in
      let product = product_of_levels (fun s -> level_at_time s t_settle) in
      checki
        (Format.asprintf "op %d (%a) settled" k V.pp_mult_op op)
        (V.expected_product op) product)
    ops

let test_ddm_settles_to_correct_products () =
  let m = Lazy.force mult in
  let ops = V.paper_sequence_a in
  let r = Iddm.run (Iddm.config DL.tech) m.G.mult_circuit ~drives:(drives_for ops) in
  check_settled_products ops (fun s t -> D.level_at r.Iddm.waveforms.(s) ~vt:2.5 t)

let test_cdm_settles_to_correct_products () =
  let m = Lazy.force mult in
  let ops = V.paper_sequence_b in
  let r =
    Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) m.G.mult_circuit
      ~drives:(drives_for ops)
  in
  check_settled_products ops (fun s t -> D.level_at r.Iddm.waveforms.(s) ~vt:2.5 t)

let test_analog_settles_to_correct_products () =
  let m = Lazy.force mult in
  let ops = V.paper_sequence_a in
  let r =
    Sim.run (Sim.config ~t_stop:25000. DL.tech) m.G.mult_circuit ~drives:(drives_for ops)
  in
  check_settled_products ops (fun s t -> Sim.value_at r.Sim.traces.(s) t > 2.5)

let test_random_products_all_engines () =
  let m = Lazy.force mult in
  let pad ops = { V.op_a = 0; op_b = 0 } :: ops in
  List.iter
    (fun op ->
      let ops = pad [ op ] in
      let drives = drives_for ops in
      let rd = Iddm.run (Iddm.config DL.tech) m.G.mult_circuit ~drives in
      let rc = Classic.run (Classic.config DL.tech) m.G.mult_circuit ~drives in
      let p_ddm =
        product_of_levels (fun s -> D.final_level rd.Iddm.waveforms.(s) ~vt:2.5)
      in
      let p_classic = product_of_levels (fun s -> rc.Classic.final_levels.(s)) in
      let expected = V.expected_product op in
      checki (Format.asprintf "ddm %a" V.pp_mult_op op) expected p_ddm;
      checki (Format.asprintf "classic %a" V.pp_mult_op op) expected p_classic)
    (Fixtures.random_ops ~bits:4 ~count:10 ~seed:21)

(* Edge-time agreement between DDM and the analog reference on a clean
   step through the chain: same edge count, arrival within 150 ps. *)
let test_ddm_analog_edge_alignment () =
  let c = G.inverter_chain ~n:3 () in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false [ (500., true) ]) ] in
  let rd = Iddm.run (Iddm.config DL.tech) c ~drives in
  let ra = Sim.run (Sim.config ~t_stop:4000. DL.tech) c ~drives in
  List.iter
    (fun name ->
      let ed = D.edges (Iddm.waveform rd name) ~vt:2.5 in
      let ea = Sim.edges ra name in
      checki (name ^ " edge count") (List.length ea) (List.length ed);
      List.iter2
        (fun (d : D.edge) (a : D.edge) ->
          checkb
            (Printf.sprintf "%s edge within 250ps (d=%.0f a=%.0f)" name d.D.at a.D.at)
            true
            (Float.abs (d.D.at -. a.D.at) < 250.))
        ed ea)
    [ "out1"; "out2"; "out" ]

(* Both engines and the analog reference agree on whether a pulse
   survives, across a coarse width sweep (away from band boundaries). *)
let test_pulse_survival_consensus () =
  let c = G.inverter_chain ~n:2 () in
  List.iter
    (fun (width, expect_alive) ->
      let drives = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width ()) ] in
      let rd = Iddm.run (Iddm.config DL.tech) c ~drives in
      let ra = Sim.run (Sim.config ~t_stop:8000. DL.tech) c ~drives in
      let alive_d = D.edge_count (Iddm.waveform rd "out") ~vt:2.5 = 2 in
      let alive_a = List.length (Sim.edges ra "out") = 2 in
      checkb (Printf.sprintf "ddm width %.0f" width) expect_alive alive_d;
      checkb (Printf.sprintf "analog width %.0f" width) expect_alive alive_a)
    [ (60., false); (400., true); (800., true) ]

let test_activity_ordering_ddm_cdm () =
  (* DDM switching activity never exceeds CDM on the paper workloads *)
  let m = Lazy.force mult in
  List.iter
    (fun ops ->
      let drives = drives_for ops in
      let rd = Iddm.run (Iddm.config DL.tech) m.G.mult_circuit ~drives in
      let rc = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) m.G.mult_circuit ~drives in
      let ad = (Act.of_iddm rd).Act.total_transitions in
      let ac = (Act.of_iddm rc).Act.total_transitions in
      checkb "DDM <= CDM" true (ad <= ac))
    [ V.paper_sequence_a; V.paper_sequence_b ]

(* Random circuits with random vectored stimuli must settle, in every
   event-driven engine, to the same levels a pure functional evaluation
   of the final vector gives. *)
let static_eval c ~inputs_final =
  let levels = Array.make (N.signal_count c) false in
  Array.iter
    (fun (s : N.signal) ->
      match s.N.constant with
      | Some Halotis_logic.Value.L1 -> levels.(s.N.signal_id) <- true
      | Some (Halotis_logic.Value.L0 | Halotis_logic.Value.X | Halotis_logic.Value.Z) | None
        ->
          ())
    (N.signals c);
  List.iter2 (fun sid v -> levels.(sid) <- v) (N.primary_inputs c) inputs_final;
  (match Halotis_netlist.Check.topological_gates c with
  | Some order ->
      List.iter
        (fun gid ->
          let g = N.gate c gid in
          levels.(g.N.output) <-
            Halotis_logic.Gate_kind.eval_bool g.N.kind
              (Array.map (fun s -> levels.(s)) g.N.fanin))
        order
  | None -> Alcotest.fail "cycle");
  levels

let prop_random_circuits_settle =
  QCheck.Test.make ~name:"random circuits settle to the functional value" ~count:15
    QCheck.(pair (int_range 5 60) (int_range 2 5))
    (fun (gates, inputs) ->
      let c = G.random_combinational ~gates ~inputs ~seed:(gates + (100 * inputs)) () in
      let rng = Halotis_util.Prng.create ~seed:(gates * 7) in
      (* two random vectors, the second applied at 5 ns *)
      let vec () = List.init inputs (fun _ -> Halotis_util.Prng.bool rng) in
      let v1 = vec () and v2 = vec () in
      let drives =
        List.mapi
          (fun i sid ->
            ( sid,
              Drive.of_levels ~slope:100. ~initial:(List.nth v1 i)
                [ (5000., List.nth v2 i) ] ))
          (N.primary_inputs c)
      in
      let expected = static_eval c ~inputs_final:v2 in
      let rd = Iddm.run (Iddm.config DL.tech) c ~drives in
      let rc = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) c ~drives in
      let rcl = Classic.run (Classic.config DL.tech) c ~drives in
      List.for_all
        (fun sid ->
          D.final_level rd.Iddm.waveforms.(sid) ~vt:2.5 = expected.(sid)
          && D.final_level rc.Iddm.waveforms.(sid) ~vt:2.5 = expected.(sid)
          && rcl.Classic.final_levels.(sid) = expected.(sid))
        (N.primary_outputs c))

let test_hnl_roundtrip_preserves_simulation () =
  let f = G.fig1_circuit () in
  let c2 =
    match Hnl.parse_string (Hnl.to_string f.G.circuit) with
    | Ok c -> c
    | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  in
  let drives c = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:225. ()) ] in
  let r1 = Iddm.run (Iddm.config DL.tech) f.G.circuit ~drives:(drives f.G.circuit) in
  let r2 = Iddm.run (Iddm.config DL.tech) c2 ~drives:(drives c2) in
  List.iter
    (fun name ->
      checki (name ^ " same edges")
        (D.edge_count (Iddm.waveform r1 name) ~vt:2.5)
        (D.edge_count (Iddm.waveform r2 name) ~vt:2.5))
    [ "out0"; "out1c"; "out2c" ];
  checki "same event count" r1.Iddm.stats.Halotis_engine.Stats.events_processed
    r2.Iddm.stats.Halotis_engine.Stats.events_processed

let test_vcd_export_of_run () =
  let m = Lazy.force mult in
  let r =
    Iddm.run (Iddm.config DL.tech) m.G.mult_circuit ~drives:(drives_for V.paper_sequence_a)
  in
  let dumps =
    List.mapi
      (fun i s ->
        Halotis_wave.Vcd.of_waveform ~name:(Printf.sprintf "s%d" i) ~vt:2.5
          r.Iddm.waveforms.(s))
      m.G.product_bits
  in
  let path = Filename.temp_file "halotis" ".vcd" in
  Halotis_wave.Vcd.write_file path dumps;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  checkb "renders" true (String.length text > 200)

let tests =
  [
    ( "integration.products",
      [
        Alcotest.test_case "ddm settles correctly" `Quick test_ddm_settles_to_correct_products;
        Alcotest.test_case "cdm settles correctly" `Quick test_cdm_settles_to_correct_products;
        Alcotest.test_case "analog settles correctly" `Slow
          test_analog_settles_to_correct_products;
        Alcotest.test_case "random ops all engines" `Quick test_random_products_all_engines;
      ] );
    ( "integration.cross_engine",
      [
        Alcotest.test_case "ddm/analog edge alignment" `Quick test_ddm_analog_edge_alignment;
        Alcotest.test_case "pulse survival consensus" `Quick test_pulse_survival_consensus;
        Alcotest.test_case "activity ordering" `Quick test_activity_ordering_ddm_cdm;
        QCheck_alcotest.to_alcotest prop_random_circuits_settle;
      ] );
    ( "integration.io",
      [
        Alcotest.test_case "hnl roundtrip simulation" `Quick
          test_hnl_roundtrip_preserves_simulation;
        Alcotest.test_case "vcd export" `Quick test_vcd_export_of_run;
      ] );
  ]
