(* Tests for the sequential substrate: gated latch, flip-flop, ripple
   counter — all running on the IDDM engine's relaxation DC solver and
   event loop. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module D = Halotis_wave.Digital
module DL = Halotis_tech.Default_lib
module Budget = Halotis_guard.Budget

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let vt = 2.5

let level (r : Iddm.result) sid t = D.level_at r.Iddm.waveforms.(sid) ~vt t

(* --- gated D latch --- *)

let test_latch_transparent () =
  let l = Fixtures.d_latch () in
  (* en high: q follows d *)
  let drives =
    [
      (l.Fixtures.dl_en, Drive.constant true);
      ( l.Fixtures.dl_d,
        Drive.of_levels ~slope:100. ~initial:false [ (2000., true); (6000., false) ] );
    ]
  in
  let r = Iddm.run (Iddm.config DL.tech) l.Fixtures.dl_circuit ~drives in
  checkb "follows up" true (level r l.Fixtures.dl_q 4000.);
  checkb "follows down" false (level r l.Fixtures.dl_q 9000.)

let test_latch_holds () =
  let l = Fixtures.d_latch () in
  (* capture 1, close the latch, wiggle d: q must hold *)
  let drives =
    [
      (l.Fixtures.dl_en, Drive.of_levels ~slope:100. ~initial:true [ (4000., false) ]);
      ( l.Fixtures.dl_d,
        Drive.of_levels ~slope:100. ~initial:false
          [ (2000., true); (6000., false); (8000., true) ] );
    ]
  in
  let r = Iddm.run (Iddm.config DL.tech) l.Fixtures.dl_circuit ~drives in
  checkb "captured" true (level r l.Fixtures.dl_q 3500.);
  checkb "holds through d wiggles" true (level r l.Fixtures.dl_q 9500.);
  checkb "qb is the complement" false (level r l.Fixtures.dl_qb 9500.)

(* --- DFF --- *)

let dff_run () =
  let f = G.dff () in
  let clk =
    Drive.of_levels ~slope:100. ~initial:false
      [
        (5000., true); (7500., false);
        (10000., true); (12500., false);
        (15000., true); (17500., false);
      ]
  in
  let d = Drive.of_levels ~slope:100. ~initial:true [ (8000., false); (13000., true) ] in
  (f, Iddm.run (Iddm.config DL.tech) f.G.dff_circuit
       ~drives:[ (f.G.dff_clk, clk); (f.G.dff_d, d) ])

let test_dff_captures_on_rising_edge () =
  let f, r = dff_run () in
  (* edge at 5 ns captures d=1; at 10 ns captures d=0; at 15 ns d=1 *)
  checkb "after edge 1" true (level r f.G.dff_q 6500.);
  checkb "after edge 2" false (level r f.G.dff_q 11500.);
  checkb "after edge 3" true (level r f.G.dff_q 16500.)

let test_dff_ignores_d_between_edges () =
  let f, r = dff_run () in
  (* d falls at 8 ns, between edges: q must not move until 10 ns *)
  checkb "still holds old value" true (level r f.G.dff_q 9500.);
  (* q changes at most once per capturing edge *)
  checkb "no extra activity" true (D.edge_count r.Iddm.waveforms.(f.G.dff_q) ~vt <= 3)

let test_dff_complementary_outputs () =
  let f, r = dff_run () in
  List.iter
    (fun t -> checkb "q = not qb" true (level r f.G.dff_q t <> level r f.G.dff_qb t))
    [ 6500.; 11500.; 16500. ]

(* --- ripple counter --- *)

let counter_run bits pulses period =
  let c = G.ripple_counter ~bits () in
  let clk = Halotis_stim.Vectors.clock ~slope:100. ~period ~start:2000. ~pulses () in
  let r =
    Iddm.run
      (Iddm.config ~budget:(Budget.make ~max_events:1_000_000 ()) DL.tech)
      c.G.ctr_circuit
      ~drives:[ (c.G.ctr_clk, clk) ]
  in
  (c, r)

let counter_value (c : G.counter) (r : Iddm.result) t =
  List.fold_left
    (fun acc (i, s) -> if level r s t then acc lor (1 lsl i) else acc)
    0
    (List.mapi (fun i s -> (i, s)) c.G.ctr_q)

let test_counter_counts () =
  let bits = 3 and pulses = 6 and period = 5000. in
  let c, r = counter_run bits pulses period in
  checkb "terminates" true (Halotis_guard.Stop.completed r.Iddm.stopped_by);
  let modulus = 1 lsl bits in
  let v0 = counter_value c r 1000. in
  (* this ripple topology decrements once per clock pulse *)
  List.iteri
    (fun k t ->
      let v = counter_value c r t in
      checki (Printf.sprintf "after %d pulses" k) ((v0 - k + (8 * modulus)) mod modulus) v)
    (List.init (pulses + 1) (fun k -> 1900. +. (period *. float_of_int k)))

let test_counter_wraps () =
  (* 1-bit counter = toggle flip-flop; 4 pulses bring it back *)
  let c, r = counter_run 1 4 5000. in
  let v0 = counter_value c r 1000. in
  checki "wrapped" v0 (counter_value c r (1900. +. 20000.));
  checki "toggled" (1 - v0) (counter_value c r (1900. +. 5000.))

let test_counter_classic_agrees () =
  (* the classical engine counts the same way on a clean clock *)
  let bits = 2 and pulses = 3 and period = 5000. in
  let c, r = counter_run bits pulses period in
  let clk = Halotis_stim.Vectors.clock ~slope:100. ~period ~start:2000. ~pulses () in
  let rc =
    Classic.run (Classic.config DL.tech) c.G.ctr_circuit ~drives:[ (c.G.ctr_clk, clk) ]
  in
  let classic_value =
    List.fold_left
      (fun acc (i, s) -> if rc.Classic.final_levels.(s) then acc lor (1 lsl i) else acc)
      0
      (List.mapi (fun i s -> (i, s)) c.G.ctr_q)
  in
  checki "same final count" (counter_value c r 50000.) classic_value

let tests =
  [
    ( "sequential.latch",
      [
        Alcotest.test_case "transparent" `Quick test_latch_transparent;
        Alcotest.test_case "holds" `Quick test_latch_holds;
      ] );
    ( "sequential.dff",
      [
        Alcotest.test_case "captures on edge" `Quick test_dff_captures_on_rising_edge;
        Alcotest.test_case "ignores d between edges" `Quick test_dff_ignores_d_between_edges;
        Alcotest.test_case "complementary outputs" `Quick test_dff_complementary_outputs;
      ] );
    ( "sequential.counter",
      [
        Alcotest.test_case "counts" `Quick test_counter_counts;
        Alcotest.test_case "wraps" `Quick test_counter_wraps;
        Alcotest.test_case "classic agrees" `Quick test_counter_classic_agrees;
      ] );
  ]

(* --- LFSR --- *)

(* software model of the same Fibonacci XOR LFSR: state is stage 0
   first; on each clock, every stage takes its predecessor and stage 0
   takes xor of the taps *)
let lfsr_step ~bits ~taps state =
  let fb = List.fold_left (fun acc t -> acc <> List.nth state t) false taps in
  fb :: List.filteri (fun i _ -> i < bits - 1) state

let test_lfsr_matches_software_model () =
  let bits = 4 and taps = [ 2; 3 ] and pulses = 10 in
  let l = Fixtures.lfsr ~bits ~taps () in
  let period = 6000. in
  let clk = Halotis_stim.Vectors.clock ~slope:100. ~period ~start:2000. ~pulses () in
  let r =
    Iddm.run
      (Iddm.config ~budget:(Budget.make ~max_events:2_000_000 ()) DL.tech)
      l.Fixtures.lfsr_circuit
      ~drives:[ (l.Fixtures.lfsr_clk, clk) ]
  in
  checkb "terminates" true (Halotis_guard.Stop.completed r.Iddm.stopped_by);
  let state_at t = List.map (fun s -> level r s t) l.Fixtures.lfsr_taps in
  let initial = state_at 1000. in
  let expected = ref initial in
  List.iter
    (fun k ->
      expected := lfsr_step ~bits ~taps !expected;
      let t = 1900. +. (period *. float_of_int k) in
      Alcotest.(check (list bool))
        (Printf.sprintf "state after %d pulses" k)
        !expected (state_at t))
    (List.init pulses (fun k -> k + 1))

let test_lfsr_state_evolution () =
  let bits = 3 and taps = [ 1; 2 ] in
  let l = Fixtures.lfsr ~bits ~taps () in
  let period = 6000. in
  let pulses = 6 in
  let clk = Halotis_stim.Vectors.clock ~slope:100. ~period ~start:2000. ~pulses () in
  let r =
    Iddm.run
      (Iddm.config ~budget:(Budget.make ~max_events:2_000_000 ()) DL.tech)
      l.Fixtures.lfsr_circuit
      ~drives:[ (l.Fixtures.lfsr_clk, clk) ]
  in
  let state_at t = List.map (fun s -> level r s t) l.Fixtures.lfsr_taps in
  let states =
    List.init (pulses + 1) (fun k -> state_at (1900. +. (period *. float_of_int k)))
  in
  let initial = List.hd states in
  checkb "starts away from lock-up" true (List.exists Fun.id initial);
  (* a maximal-length 3-bit XOR LFSR walks through 7 distinct states *)
  checkb "several distinct states" true
    (List.length (List.sort_uniq compare states) >= 5)

let tests =
  tests
  @ [
      ( "sequential.lfsr",
        [
          Alcotest.test_case "matches software model" `Quick test_lfsr_matches_software_model;
          Alcotest.test_case "state evolution" `Quick test_lfsr_state_evolution;
        ] );
    ]
