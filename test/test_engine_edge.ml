(* Edge-case hardening for the engines: unusual wiring, simultaneous
   events, constants, wide and complex gates. *)

module N = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module Stats = Halotis_engine.Stats
module D = Halotis_wave.Digital
module W = Halotis_wave.Waveform
module DL = Halotis_tech.Default_lib
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let vt = 2.5
let sid c n = match N.find_signal c n with Some s -> s | None -> Alcotest.failf "no %s" n
let step at = Drive.of_levels ~slope:100. ~initial:false [ (at, true) ]

(* A NAND2 with both pins tied to the same signal acts as an inverter;
   both pins receive an event from each transition. *)
let test_both_pins_same_signal () =
  let b = Builder.create "tied" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g" ~inputs:[ a; a ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives:[ (sid c "a", step 1000.) ] in
  checki "two events (one per pin)" 2 r.Iddm.stats.Stats.events_processed;
  (match D.edges (Iddm.waveform r "y") ~vt with
  | [ e ] ->
      checkb "inverts" true
        (Halotis_wave.Transition.equal_polarity e.D.polarity Halotis_wave.Transition.Falling)
  | l -> Alcotest.failf "expected one edge, got %d" (List.length l));
  (* classic handles it too *)
  let rc = Classic.run (Classic.config DL.tech) c ~drives:[ (sid c "a", step 1000.) ] in
  checkb "classic final low" false rc.Classic.final_levels.(sid c "y")

let test_constant_input_gate () =
  (* AND with one pin tied low: output stuck at 0 regardless of events *)
  let b = Builder.create "tie" in
  let a = Builder.input b "a" in
  let zero = Builder.const b Value.L0 in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g" ~inputs:[ a; zero ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives:[ (sid c "a", step 1000.) ] in
  checki "no output edges" 0 (D.edge_count (Iddm.waveform r "y") ~vt);
  checkb "all evaluations no-ops" true (r.Iddm.stats.Stats.noop_evaluations > 0)

let test_simultaneous_input_events () =
  (* two inputs of a NAND switch at exactly the same instant: output
     falls exactly once (determinism of the rank tie-break) *)
  let b = Builder.create "simul" in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g" ~inputs:[ a; bb ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let drives = [ (sid c "a", step 1000.); (sid c "b", step 1000.) ] in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives in
  checki "one edge" 1 (D.edge_count (Iddm.waveform r "y") ~vt);
  let r2 = Iddm.run (Iddm.config DL.tech) c ~drives in
  checki "deterministic" r.Iddm.stats.Stats.events_processed
    r2.Iddm.stats.Stats.events_processed

let test_complex_cells_in_engine () =
  (* AOI21 and MUX2 behave per their truth tables dynamically *)
  let b = Builder.create "cells" in
  let a = Builder.input b "a" in
  let x = Builder.input b "x" in
  let s = Builder.input b "s" in
  let y_aoi = Builder.signal b "y_aoi" in
  let y_mux = Builder.signal b "y_mux" in
  let _ = Builder.add_gate b Gate_kind.Aoi21 ~name:"g1" ~inputs:[ a; x; s ] ~output:y_aoi in
  let _ = Builder.add_gate b Gate_kind.Mux2 ~name:"g2" ~inputs:[ a; x; s ] ~output:y_mux in
  Builder.mark_output b y_aoi;
  Builder.mark_output b y_mux;
  let c = Builder.finalize b in
  (* a=1 x=1 s: 0 -> 1 at 1ns.  aoi = not(a&x | s): 0 -> 0 (stays);
     mux = s ? x : a = 1 -> 1 (stays) *)
  let drives =
    [
      (sid c "a", Drive.constant true);
      (sid c "x", Drive.constant true);
      (sid c "s", step 1000.);
    ]
  in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives in
  checki "aoi stays low" 0 (D.edge_count (Iddm.waveform r "y_aoi") ~vt);
  checki "mux stays high" 0 (D.edge_count (Iddm.waveform r "y_mux") ~vt);
  (* a=1 x=0: mux follows s inverted... mux = s ? 0 : 1, so s rising
     makes y_mux fall exactly once *)
  let drives2 =
    [
      (sid c "a", Drive.constant true);
      (sid c "x", Drive.constant false);
      (sid c "s", step 1000.);
    ]
  in
  let r2 = Iddm.run (Iddm.config DL.tech) c ~drives:drives2 in
  checki "mux switches once" 1 (D.edge_count (Iddm.waveform r2 "y_mux") ~vt)

let test_wide_gate_in_engine () =
  let b = Builder.create "wide" in
  let ins = List.init 4 (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 4) ~name:"g" ~inputs:ins ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  (* three inputs high, the last one rises at staggered times: only the
     final rise flips the output *)
  let drives =
    List.mapi
      (fun i s ->
        if i < 3 then (s, Drive.constant true) else (s, step (1000. +. (200. *. float_of_int i))))
      ins
  in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives in
  checki "one falling edge" 1 (D.edge_count (Iddm.waveform r "y") ~vt)

let test_fanout_stress () =
  (* a buffer tree: the step reaches all leaves exactly once *)
  let c = G.buffer_tree ~depth:4 () in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives:[ (sid c "in", step 1000.) ] in
  List.iter
    (fun out -> checki "leaf switches once" 1 (D.edge_count r.Iddm.waveforms.(out) ~vt))
    (N.primary_outputs c);
  checkb "no filtering on a clean tree" true (r.Iddm.stats.Stats.events_filtered = 0)

let test_glitch_train () =
  (* a rapid train of narrow pulses into a chain: the engine terminates
     and the output sees at most as many pulses as the input *)
  let c = G.inverter_chain ~n:3 () in
  let changes =
    List.concat (List.init 10 (fun k ->
        let base = 1000. +. (400. *. float_of_int k) in
        [ (base, true); (base +. 150., false) ]))
  in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false changes) ] in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives in
  checkb "terminates" false r.Iddm.truncated;
  let in_edges = D.edge_count (Iddm.waveform r "in") ~vt in
  let out_edges = D.edge_count (Iddm.waveform r "out") ~vt in
  checkb "no amplification" true (out_edges <= in_edges);
  checkb "degradation filtered some" true (out_edges < in_edges)

let test_zero_time_drive () =
  (* a drive switching at t = 0 is legal *)
  let c = G.inverter_chain ~n:2 () in
  let r =
    Iddm.run (Iddm.config DL.tech) c
      ~drives:[ (sid c "in", Drive.of_levels ~slope:50. ~initial:false [ (0., true) ]) ]
  in
  checki "propagates" 1 (D.edge_count (Iddm.waveform r "out") ~vt)

let test_classic_window_preemption () =
  (* input reverses before the first scheduled output transaction
     fires: classical annihilation leaves the output silent *)
  let c = G.inverter_chain ~n:1 () in
  let drives = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:60. ()) ] in
  let r = Classic.run (Classic.config DL.tech) c ~drives in
  checki "filtered" 0 (List.length (Classic.edges_of_name r "out"));
  checkb "counted as filtered" true (r.Classic.stats.Stats.events_filtered > 0)

let tests =
  [
    ( "engine.edge_cases",
      [
        Alcotest.test_case "both pins same signal" `Quick test_both_pins_same_signal;
        Alcotest.test_case "constant input" `Quick test_constant_input_gate;
        Alcotest.test_case "simultaneous events" `Quick test_simultaneous_input_events;
        Alcotest.test_case "complex cells" `Quick test_complex_cells_in_engine;
        Alcotest.test_case "wide gate" `Quick test_wide_gate_in_engine;
        Alcotest.test_case "fanout stress" `Quick test_fanout_stress;
        Alcotest.test_case "glitch train" `Quick test_glitch_train;
        Alcotest.test_case "zero-time drive" `Quick test_zero_time_drive;
        Alcotest.test_case "classic preemption" `Quick test_classic_window_preemption;
      ] );
  ]

(* Every gate kind, driven dynamically with random step vectors, must
   settle to its boolean function. *)
let prop_every_kind_settles =
  let kind_gen = QCheck.Gen.oneofl Gate_kind.all_basic in
  QCheck.Test.make ~name:"every gate kind settles to eval_bool" ~count:150
    (QCheck.make QCheck.Gen.(pair kind_gen (pair (list_size (return 4) bool) (list_size (return 4) bool))))
    (fun (kind, (v1, v2)) ->
      let arity = Gate_kind.arity kind in
      let take l = List.filteri (fun i _ -> i < arity) (l @ [ false; false; false; false ]) in
      let v1 = take v1 and v2 = take v2 in
      let b = Builder.create "k" in
      let ins = List.init arity (fun i -> Builder.input b (Printf.sprintf "i%d" i)) in
      let y = Builder.signal b "y" in
      let _ = Builder.add_gate b kind ~name:"g" ~inputs:ins ~output:y in
      Builder.mark_output b y;
      let c = Builder.finalize b in
      let drives =
        List.mapi
          (fun i s ->
            ( s,
              Drive.of_levels ~slope:100. ~initial:(List.nth v1 i)
                [ (1000., List.nth v2 i) ] ))
          ins
      in
      let r = Iddm.run (Iddm.config DL.tech) c ~drives in
      let expected = Gate_kind.eval_bool kind (Array.of_list v2) in
      D.final_level r.Iddm.waveforms.(sid c "y") ~vt = expected)

(* Drive construction algebra: a pulse is exactly the two-change level
   list. *)
let prop_pulse_is_two_levels =
  QCheck.Test.make ~name:"Drive.pulse = Drive.of_levels with two changes" ~count:200
    QCheck.(triple (float_range 10. 5000.) (float_range 10. 2000.) (float_range 10. 400.))
    (fun (at, width, slope) ->
      let p = Drive.pulse ~slope ~at ~width () in
      let l = Drive.of_levels ~slope ~initial:false [ (at, true); (at +. width, false) ] in
      p = l)

let tests =
  tests
  @ [
      ( "engine.properties",
        [
          QCheck_alcotest.to_alcotest prop_every_kind_settles;
          QCheck_alcotest.to_alcotest prop_pulse_is_two_levels;
        ] );
    ]

(* --- causality trace --- *)

let test_trace_chain () =
  let c = G.inverter_chain ~n:3 () in
  let r =
    Iddm.run (Iddm.config ~trace:true DL.tech) c ~drives:[ (sid c "in", step 1000.) ]
  in
  checki "three traced ramps" 3 (List.length r.Iddm.trace);
  (* explain the final edge on out: chain of 3 links back to the input *)
  let out = sid c "out" in
  let chain = Iddm.explain r ~signal:out ~at:1e9 in
  checki "three links" 3 (List.length chain);
  (match chain with
  | first :: _ ->
      checkb "starts from the input side" true
        (N.signal_name c first.Iddm.te_cause_signal = "in")
  | [] -> Alcotest.fail "empty chain");
  (match List.rev chain with
  | last :: _ -> checki "ends on out" out last.Iddm.te_signal
  | [] -> ());
  (* times increase along the chain *)
  let rec increasing = function
    | (a : Iddm.trace_entry) :: (b :: _ as rest) ->
        a.Iddm.te_start < b.Iddm.te_start && increasing rest
    | [ _ ] | [] -> true
  in
  checkb "chronological" true (increasing chain);
  checkb "pp renders" true
    (String.length (Format.asprintf "%a" (Iddm.pp_explanation r) chain) > 20)

let test_trace_off_by_default () =
  let c = G.inverter_chain ~n:2 () in
  let r = Iddm.run (Iddm.config DL.tech) c ~drives:[ (sid c "in", step 1000.) ] in
  checki "no trace" 0 (List.length r.Iddm.trace);
  checki "explain empty" 0 (List.length (Iddm.explain r ~signal:(sid c "out") ~at:1e9))

let test_trace_skips_annulled () =
  (* a filtered pulse: annulled ramps never appear in an explanation —
     every chain link must correspond to a segment still live in the
     waveform store *)
  let c = G.inverter_chain ~n:2 () in
  let drives = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:120. ()) ] in
  let r = Iddm.run (Iddm.config ~trace:true DL.tech) c ~drives in
  checki "out edges" 0 (D.edge_count (Iddm.waveform r "out") ~vt);
  let chain = Iddm.explain r ~signal:(sid c "out") ~at:1e9 in
  List.iter
    (fun (e : Iddm.trace_entry) ->
      let live =
        List.exists
          (fun (seg : W.segment) ->
            Float.abs (seg.W.transition.Halotis_wave.Transition.start -. e.Iddm.te_start)
            < 1e-9)
          (W.segments r.Iddm.waveforms.(e.Iddm.te_signal))
      in
      checkb "link is live" true live)
    chain;
  (* a signal with no activity at all explains to nothing *)
  let quiet = Iddm.run (Iddm.config ~trace:true DL.tech) c ~drives:[] in
  checki "quiet chain" 0 (List.length (Iddm.explain quiet ~signal:(sid c "out") ~at:1e9))

let tests =
  tests
  @ [
      ( "engine.trace",
        [
          Alcotest.test_case "chain" `Quick test_trace_chain;
          Alcotest.test_case "off by default" `Quick test_trace_off_by_default;
          Alcotest.test_case "skips annulled" `Quick test_trace_skips_annulled;
        ] );
    ]

let test_classic_transport_mode () =
  (* transport mode propagates the pulse inertial mode filters *)
  let c = G.inverter_chain ~n:2 () in
  let drives = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:60. ()) ] in
  let inertial = Classic.run (Classic.config DL.tech) c ~drives in
  let transport =
    Classic.run (Classic.config ~mode:Classic.Transport DL.tech) c ~drives
  in
  checki "inertial filters" 0 (List.length (Classic.edges_of_name inertial "out"));
  checki "transport keeps" 2 (List.length (Classic.edges_of_name transport "out"));
  checkb "width preserved" true
    (match Classic.edges_of_name transport "out" with
    | [ e1; e2 ] -> Float.abs (e2.D.at -. e1.D.at -. 60.) < 10.
    | _ -> false)

let tests =
  tests
  @ [
      ( "engine.transport",
        [ Alcotest.test_case "transport vs inertial" `Quick test_classic_transport_mode ] );
    ]
