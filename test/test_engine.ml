(* Tests for Halotis_engine: the IDDM simulator (Fig. 4 algorithm), the
   classical baseline, drives and statistics. *)

module N = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module Stats = Halotis_engine.Stats
module W = Halotis_wave.Waveform
module T = Halotis_wave.Transition
module D = Halotis_wave.Digital
module DL = Halotis_tech.Default_lib
module DM = Halotis_delay.Delay_model
module Gate_kind = Halotis_logic.Gate_kind

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let vt_mid = 2.5

let sid c n = match N.find_signal c n with Some s -> s | None -> Alcotest.failf "no signal %s" n
let ddm_cfg () = Iddm.config DL.tech
let cdm_cfg () = Iddm.config ~delay_kind:DM.Cdm DL.tech

(* --- Drive --- *)

let test_drive_of_levels () =
  let d = Drive.of_levels ~slope:50. ~initial:false [ (300., true); (100., true); (500., false) ] in
  checkb "initial" false d.Drive.initial;
  (* sorted and deduplicated: change at 100 (rise), 500 (fall); the 300
     entry repeats the current level and is dropped *)
  checki "two transitions" 2 (List.length d.Drive.transitions);
  match d.Drive.transitions with
  | [ t1; t2 ] ->
      checkb "rise first" true (T.equal_polarity t1.T.polarity T.Rising);
      checkb "fall second" true (T.equal_polarity t2.T.polarity T.Falling);
      checkb "ordered" true (t1.T.start < t2.T.start)
  | _ -> Alcotest.fail "unexpected shape"

let test_drive_pulse () =
  let d = Drive.pulse ~slope:50. ~at:1000. ~width:200. () in
  checki "two transitions" 2 (List.length d.Drive.transitions);
  checkb "positive pulse starts rising" true
    (match d.Drive.transitions with
    | t :: _ -> T.equal_polarity t.T.polarity T.Rising
    | [] -> false)

let test_drive_check_disorder () =
  let bad =
    {
      Drive.initial = false;
      transitions =
        [
          T.make ~start:500. ~slope_time:10. ~polarity:T.Rising;
          T.make ~start:100. ~slope_time:10. ~polarity:T.Falling;
        ];
    }
  in
  let c = G.inverter_chain ~n:1 () in
  checkb "raises" true
    (try
       ignore (Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "in", bad) ]);
       false
     with Invalid_argument _ -> true)

let test_drive_constant () =
  let d = Drive.constant true in
  checkb "initial" true d.Drive.initial;
  checki "none" 0 (List.length d.Drive.transitions)

(* --- IDDM engine basics --- *)

let step_drive ?(at = 1000.) ?(slope = 100.) () =
  Drive.of_levels ~slope ~initial:false [ (at, true) ]

let test_step_through_chain () =
  let c = G.inverter_chain ~n:4 () in
  let r = Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "in", step_drive ()) ] in
  checkb "not truncated" true (Halotis_guard.Stop.completed r.Iddm.stopped_by);
  checki "events" 4 r.Iddm.stats.Stats.events_processed;
  (* each internal stage switches exactly once, alternating direction *)
  List.iteri
    (fun i name ->
      let w = Iddm.waveform r name in
      match D.edges w ~vt:vt_mid with
      | [ e ] ->
          let expect_rising = i mod 2 = 1 in
          checkb (name ^ " direction") expect_rising
            (T.equal_polarity e.D.polarity T.Rising)
      | l -> Alcotest.failf "%s: expected 1 edge, got %d" name (List.length l))
    [ "out1"; "out2"; "out3"; "out" ];
  (* delays accumulate monotonically along the chain *)
  let edge_time name =
    match D.edges (Iddm.waveform r name) ~vt:vt_mid with
    | [ e ] -> e.D.at
    | _ -> Alcotest.fail "one edge expected"
  in
  let ts = List.map edge_time [ "out1"; "out2"; "out3"; "out" ] in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  checkb "monotone arrival" true (increasing ts);
  (* per-stage delay in a plausible 0.6um band *)
  List.iter2
    (fun t_prev t_next ->
      let d = t_next -. t_prev in
      checkb "stage delay plausible" true (d > 20. && d < 1000.))
    (1050. :: ts)
    (ts @ [ List.nth ts 3 +. 100. ])

let test_quiescent_run () =
  let c = G.inverter_chain ~n:3 () in
  let r = Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "in", Drive.constant true) ] in
  checki "no events" 0 r.Iddm.stats.Stats.events_processed;
  (* DC propagated: in=1 -> out1=0 -> out2=1 -> out=0 *)
  checkb "out1 low" true (W.initial (Iddm.waveform r "out1") < 0.1);
  checkb "out2 high" true (W.initial (Iddm.waveform r "out2") > 4.9);
  checkb "out low" true (W.initial (Iddm.waveform r "out") < 0.1)

let test_drive_on_non_input_raises () =
  let c = G.inverter_chain ~n:2 () in
  checkb "raises" true
    (try
       ignore (Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "out1", step_drive ()) ]);
       false
     with Invalid_argument _ -> true)

let ring_oscillator () =
  let b = Builder.create "ring" in
  let a = Builder.input b "a" in
  let x = Builder.signal b "x" in
  let y = Builder.signal b "y" in
  let z = Builder.signal b "z" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g1" ~inputs:[ a; z ] ~output:x in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[ x ] ~output:y in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g3" ~inputs:[ y ] ~output:z in
  Builder.mark_output b z;
  Builder.finalize b

let test_oscillator_raises () =
  (* enabled NAND ring: no DC fixed point *)
  let c = ring_oscillator () in
  checkb "raises" true
    (try
       ignore (Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "a", Drive.constant true) ]);
       false
     with Invalid_argument _ -> true)

let test_waveform_lookup () =
  let c = G.inverter_chain ~n:2 () in
  let r = Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "in", step_drive ()) ] in
  checkb "found" true (W.segment_count (Iddm.waveform r "out") >= 1);
  checkb "not found" true
    (try
       ignore (Iddm.waveform r "nonexistent");
       false
     with Not_found -> true)

let test_output_edges_accessor () =
  let c = G.inverter_chain ~n:2 () in
  let module Sim = Halotis_engine.Sim in
  let r = Sim.run Sim.Ddm (Sim.spec ~drives:[ (sid c "in", step_drive ()) ] ~tech:DL.tech c) in
  match Sim.output_edges r with
  | [ (name, edges) ] ->
      Alcotest.(check string) "name" "out" name;
      checki "one edge" 1 (List.length edges)
  | l -> Alcotest.failf "expected one output, got %d" (List.length l)

let test_determinism () =
  let m = G.array_multiplier ~nand_only:true ~m:4 ~n:4 () in
  let c = m.G.mult_circuit in
  let drives =
    Halotis_stim.Vectors.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits
      ~b_bits:m.G.mb_bits Halotis_stim.Vectors.paper_sequence_a
  in
  let r1 = Iddm.run (ddm_cfg ()) c ~drives in
  let r2 = Iddm.run (ddm_cfg ()) c ~drives in
  checki "same events" r1.Iddm.stats.Stats.events_processed
    r2.Iddm.stats.Stats.events_processed;
  checki "same filtered" r1.Iddm.stats.Stats.events_filtered
    r2.Iddm.stats.Stats.events_filtered;
  Array.iteri
    (fun sidx w1 ->
      let e1 = D.edges w1 ~vt:vt_mid and e2 = D.edges r2.Iddm.waveforms.(sidx) ~vt:vt_mid in
      checki "same edge count" (List.length e1) (List.length e2))
    r1.Iddm.waveforms

let test_stats_conservation () =
  let m = G.array_multiplier ~nand_only:true ~m:4 ~n:4 () in
  let c = m.G.mult_circuit in
  let drives =
    Halotis_stim.Vectors.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits
      ~b_bits:m.G.mb_bits Halotis_stim.Vectors.paper_sequence_b
  in
  let r = Iddm.run (ddm_cfg ()) c ~drives in
  let s = r.Iddm.stats in
  checki "scheduled = processed + filtered" s.Stats.events_scheduled
    (s.Stats.events_processed + s.Stats.events_filtered);
  checkb "some filtering happened" true (s.Stats.events_filtered > 0)

let test_max_events_truncation () =
  let m = G.array_multiplier ~nand_only:true ~m:4 ~n:4 () in
  let c = m.G.mult_circuit in
  let drives =
    Halotis_stim.Vectors.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits
      ~b_bits:m.G.mb_bits Halotis_stim.Vectors.paper_sequence_a
  in
  let r = Iddm.run
      (Iddm.config ~budget:(Halotis_guard.Budget.make ~max_events:10 ()) DL.tech)
      c ~drives in
  checkb "truncated" false (Halotis_guard.Stop.completed r.Iddm.stopped_by);
  checki "stopped at limit" 10 r.Iddm.stats.Stats.events_processed

let test_t_stop () =
  let c = G.inverter_chain ~n:6 () in
  let full = Iddm.run (ddm_cfg ()) c ~drives:[ (sid c "in", step_drive ()) ] in
  let cut =
    Iddm.run (Iddm.config ~t_stop:1200. DL.tech) c ~drives:[ (sid c "in", step_drive ()) ]
  in
  checkb "fewer events" true
    (cut.Iddm.stats.Stats.events_processed < full.Iddm.stats.Stats.events_processed);
  checkb "end time bounded" true (cut.Iddm.end_time <= 1200.)

(* --- degradation behaviour (the paper's Section 2) --- *)

let out_pulse_width cfg c width =
  let drives = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width ()) ] in
  let r = Iddm.run cfg c ~drives in
  match D.pulses (Iddm.waveform r "out") ~vt:vt_mid with
  | [ p ] -> Some p.D.width
  | [] -> None
  | _ -> Alcotest.fail "unexpected multi-pulse"

let test_ddm_filters_narrow_pulse () =
  let c = G.inverter_chain ~n:2 () in
  checkb "narrow dies" true (out_pulse_width (ddm_cfg ()) c 120. = None);
  checkb "wide survives" true (out_pulse_width (ddm_cfg ()) c 600. <> None)

let test_cdm_does_not_degrade () =
  let c = G.inverter_chain ~n:2 () in
  (* where DDM filters, CDM still propagates (approximately preserving
     the width) *)
  match out_pulse_width (cdm_cfg ()) c 150. with
  | Some w -> checkb "width roughly preserved" true (Float.abs (w -. 150.) < 60.)
  | None -> Alcotest.fail "CDM must not filter a 150ps pulse"

let test_degradation_band_exists () =
  let c = G.inverter_chain ~n:2 () in
  (* a width where the pulse survives but is measurably narrowed: the
     pulse is neither eliminated nor propagated normally (Sec. 2) *)
  match out_pulse_width (ddm_cfg ()) c 200. with
  | Some w -> checkb "degraded" true (w < 190.)
  | None -> Alcotest.fail "200ps should be inside the degradation band"

let prop_ddm_pulse_transfer_monotone =
  QCheck.Test.make ~name:"output pulse width monotone in input width" ~count:40
    QCheck.(pair (float_range 120. 900.) (float_range 10. 120.))
    (fun (w1, dw) ->
      let c = G.inverter_chain ~n:2 () in
      let p1 = out_pulse_width (ddm_cfg ()) c w1 in
      let p2 = out_pulse_width (ddm_cfg ()) c (w1 +. dw) in
      match (p1, p2) with
      | None, (None | Some _) -> true
      | Some _, None -> false
      | Some a, Some b -> b >= a -. 1.)

let test_wide_pulse_negligible_degradation () =
  let c = G.inverter_chain ~n:2 () in
  match out_pulse_width (ddm_cfg ()) c 2000. with
  | Some w -> checkb "nearly preserved" true (Float.abs (w -. 2000.) < 30.)
  | None -> Alcotest.fail "wide pulse must survive"

(* --- Fig. 1: per-input thresholds vs classical inertial --- *)

let fig1_edge_counts width =
  let f = G.fig1_circuit () in
  let drives = [ (f.G.sig_in, Drive.pulse ~slope:100. ~at:1000. ~width ()) ] in
  let r = Iddm.run (ddm_cfg ()) f.G.circuit ~drives in
  let rc = Classic.run (Classic.config DL.tech) f.G.circuit ~drives in
  let iddm name = List.length (D.edges (Iddm.waveform r name) ~vt:vt_mid) in
  let classic name = List.length (Classic.edges_of_name rc name) in
  (iddm, classic)

let test_fig1_discrimination () =
  (* 225 ps: inside the band where the runt on out0 crosses VT1 = 1.5V
     but not VT2 = 3.5V *)
  let iddm, classic = fig1_edge_counts 225. in
  checki "iddm g1 branch sees the pulse" 2 (iddm "out1c");
  checki "iddm g2 branch does not" 0 (iddm "out2c");
  (* the classical inertial model cannot discriminate: both branches
     agree (here: both propagate) — the paper's Fig. 1(c) failure *)
  checki "classic g1 branch" 2 (classic "out1c");
  checki "classic g2 branch" 2 (classic "out2c")

let test_fig1_classic_all_or_none () =
  List.iter
    (fun width ->
      let _, classic = fig1_edge_counts width in
      checki
        (Printf.sprintf "width %.0f: classic branches agree" width)
        (classic "out1c") (classic "out2c"))
    [ 100.; 150.; 200.; 250.; 300.; 400.; 600. ]

let test_fig1_wide_pulse_everywhere () =
  let iddm, classic = fig1_edge_counts 600. in
  checki "iddm both" 2 (iddm "out1c");
  checki "iddm both 2" 2 (iddm "out2c");
  checki "classic both" 2 (classic "out1c");
  checki "classic both 2" 2 (classic "out2c")

(* --- cancellation ablation --- *)

let test_cancellation_ablation () =
  let c = G.inverter_chain ~n:4 () in
  let drives = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:150. ()) ] in
  let on = Iddm.run (Iddm.config DL.tech) c ~drives in
  let off = Iddm.run (Iddm.config ~cancellation:false DL.tech) c ~drives in
  checki "no filtering when disabled" 0 off.Iddm.stats.Stats.events_filtered;
  checkb "ablation processes at least as many events" true
    (off.Iddm.stats.Stats.events_processed >= on.Iddm.stats.Stats.events_processed);
  checkb "filtering active normally" true (on.Iddm.stats.Stats.events_filtered > 0)

(* --- feedback / latches (DC relaxation) --- *)

let test_dc_latch_bistable () =
  let l = G.sr_latch () in
  let drives =
    [ (l.G.sig_s_n, Drive.constant true); (l.G.sig_r_n, Drive.constant true) ]
  in
  let r = Iddm.run (ddm_cfg ()) l.G.latch_circuit ~drives in
  checkb "q settles high" true (D.final_level r.Iddm.waveforms.(l.G.sig_q) ~vt:vt_mid);
  checkb "qb settles low" false (D.final_level r.Iddm.waveforms.(l.G.sig_qb) ~vt:vt_mid);
  checki "quiescent" 0 r.Iddm.stats.Stats.events_processed

let test_latch_set_reset () =
  let l = G.sr_latch () in
  (* reset pulse, then set pulse *)
  let drives =
    [
      (l.G.sig_s_n, Drive.of_levels ~slope:100. ~initial:true [ (5000., false); (6000., true) ]);
      (l.G.sig_r_n, Drive.of_levels ~slope:100. ~initial:true [ (1000., false); (2000., true) ]);
    ]
  in
  let r = Iddm.run (ddm_cfg ()) l.G.latch_circuit ~drives in
  let q = r.Iddm.waveforms.(l.G.sig_q) in
  checkb "reset took" false (D.level_at q ~vt:vt_mid 4000.);
  checkb "set took" true (D.level_at q ~vt:vt_mid 9000.);
  checkb "final high" true (D.final_level q ~vt:vt_mid)

let test_latch_holds_state () =
  (* after a reset pulse the latch must hold 0 indefinitely *)
  let l = G.sr_latch () in
  let drives =
    [
      (l.G.sig_s_n, Drive.constant true);
      (l.G.sig_r_n, Drive.of_levels ~slope:100. ~initial:true [ (1000., false); (2000., true) ]);
    ]
  in
  let r = Iddm.run (ddm_cfg ()) l.G.latch_circuit ~drives in
  checkb "holds low" false (D.final_level r.Iddm.waveforms.(l.G.sig_q) ~vt:vt_mid);
  checkb "finished" true (Halotis_guard.Stop.completed r.Iddm.stopped_by)

let test_latch_glitch_discrimination () =
  (* the LATCH experiment's operating point: the degraded glitch flips
     the low-VT latch only; the classical model resets both *)
  let lg = G.latch_glitch_circuit () in
  let drives = [ (lg.G.lg_in, Drive.pulse ~slope:100. ~at:1000. ~width:250. ()) ] in
  let rd = Iddm.run (ddm_cfg ()) lg.G.lg_circuit ~drives in
  let rc = Classic.run (Classic.config DL.tech) lg.G.lg_circuit ~drives in
  checkb "ddm low latch flips" false
    (D.final_level rd.Iddm.waveforms.(lg.G.lg_q_low) ~vt:vt_mid);
  checkb "ddm high latch holds" true
    (D.final_level rd.Iddm.waveforms.(lg.G.lg_q_high) ~vt:vt_mid);
  checkb "classic resets low" false rc.Classic.final_levels.(lg.G.lg_q_low);
  checkb "classic wrongly resets high" false rc.Classic.final_levels.(lg.G.lg_q_high)

let test_classic_latch () =
  let l = G.sr_latch () in
  let drives =
    [
      (l.G.sig_s_n, Drive.constant true);
      (l.G.sig_r_n, Drive.of_levels ~slope:100. ~initial:true [ (1000., false); (2000., true) ]);
    ]
  in
  let r = Classic.run (Classic.config DL.tech) l.G.latch_circuit ~drives in
  checkb "initial q high" true r.Classic.initial_levels.(l.G.sig_q);
  checkb "reset held" false r.Classic.final_levels.(l.G.sig_q)

(* --- Classic engine --- *)

let test_classic_step () =
  let c = G.inverter_chain ~n:3 () in
  let r = Classic.run (Classic.config DL.tech) c ~drives:[ (sid c "in", step_drive ()) ] in
  checki "out switches once" 1 (List.length (Classic.edges_of_name r "out"));
  (* odd chain inverts the step: out goes 1 -> 0 *)
  checkb "final low" false r.Classic.final_levels.(sid c "out");
  checkb "initial high" true r.Classic.initial_levels.(sid c "out")

let test_classic_inertial_filtering () =
  let c = G.inverter_chain ~n:2 () in
  let narrow = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:60. ()) ] in
  let wide = [ (sid c "in", Drive.pulse ~slope:100. ~at:1000. ~width:800. ()) ] in
  let rn = Classic.run (Classic.config DL.tech) c ~drives:narrow in
  let rw = Classic.run (Classic.config DL.tech) c ~drives:wide in
  checki "narrow filtered" 0 (List.length (Classic.edges_of_name rn "out"));
  checki "wide propagates" 2 (List.length (Classic.edges_of_name rw "out"))

(* Overlapping drive ramps: a slow rise at 1000 ps (50 % point at
   1200 ps) overtaken by a fast fall at 1100 ps (50 % point at 1110 ps).
   The drive ends low and, as in DDM, the input never crosses VDD/2:
   the later ramp overrides the queued rise. *)
let test_classic_overlapping_input_ramps () =
  let c = G.inverter_chain ~n:2 () in
  let drive =
    {
      Drive.initial = false;
      transitions =
        [
          T.make ~start:1000. ~slope_time:400. ~polarity:T.Rising;
          T.make ~start:1100. ~slope_time:20. ~polarity:T.Falling;
        ];
    }
  in
  let drives = [ (sid c "in", drive) ] in
  let ddm = Iddm.run (ddm_cfg ()) c ~drives in
  checki "DDM input never crosses" 0
    (List.length (D.edges (Iddm.waveform ddm "in") ~vt:(Halotis_tech.Tech.vdd DL.tech /. 2.)));
  let r = Classic.run (Classic.config DL.tech) c ~drives in
  checki "classic input never switches" 0 (List.length (Classic.edges_of_name r "in"));
  checkb "classic input ends low" false r.Classic.final_levels.(sid c "in");
  checki "classic output never switches" 0 (List.length (Classic.edges_of_name r "out"))

let test_classic_final_matches_static () =
  let m = G.array_multiplier ~nand_only:false ~m:4 ~n:4 () in
  let c = m.G.mult_circuit in
  List.iter
    (fun op ->
      let drives =
        Halotis_stim.Vectors.multiplier_drives ~slope:100. ~period:5000.
          ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits
          [ { Halotis_stim.Vectors.op_a = 0; op_b = 0 }; op ]
      in
      let r = Classic.run (Classic.config DL.tech) c ~drives in
      let product =
        List.fold_left
          (fun acc (i, s) -> if r.Classic.final_levels.(s) then acc lor (1 lsl i) else acc)
          0
          (List.mapi (fun i s -> (i, s)) m.G.product_bits)
      in
      checki
        (Format.asprintf "%a" Halotis_stim.Vectors.pp_mult_op op)
        (Halotis_stim.Vectors.expected_product op)
        product)
    (Fixtures.random_ops ~bits:4 ~count:12 ~seed:99)

let test_classic_oscillator_raises () =
  let c = ring_oscillator () in
  checkb "raises" true
    (try
       ignore
         (Classic.run (Classic.config DL.tech) c ~drives:[ (sid c "a", Drive.constant true) ]);
       false
     with Invalid_argument _ -> true)

(* --- Stats --- *)

let test_stats_copy_pp () =
  let s = Stats.create () in
  s.Stats.events_scheduled <- 5;
  let s' = Stats.copy s in
  s.Stats.events_scheduled <- 9;
  checki "copy isolated" 5 s'.Stats.events_scheduled;
  checkb "pp prints" true (String.length (Format.asprintf "%a" Stats.pp s) > 10)

let stats_of (a, b, c, d, e, f) =
  let s = Stats.create () in
  s.Stats.events_scheduled <- a;
  s.Stats.events_processed <- b;
  s.Stats.events_filtered <- c;
  s.Stats.transitions_emitted <- d;
  s.Stats.transitions_annulled <- e;
  s.Stats.noop_evaluations <- f;
  s

(* Sum of all counters: one number that any counter change moves. *)
let total (t : Stats.t) =
  t.Stats.events_scheduled + t.Stats.events_processed + t.Stats.events_filtered
  + t.Stats.transitions_emitted + t.Stats.transitions_annulled + t.Stats.noop_evaluations

let test_stats_merge () =
  let acc = stats_of (1, 2, 3, 4, 5, 6) in
  Stats.merge acc (stats_of (10, 20, 30, 40, 50, 60));
  checki "scheduled" 11 acc.Stats.events_scheduled;
  checki "processed" 22 acc.Stats.events_processed;
  checki "filtered" 33 acc.Stats.events_filtered;
  checki "emitted" 44 acc.Stats.transitions_emitted;
  checki "annulled" 55 acc.Stats.transitions_annulled;
  checki "noop" 66 acc.Stats.noop_evaluations;
  checki "total" 231 (total acc)

let test_stats_diff () =
  let a = stats_of (11, 22, 33, 44, 55, 66) in
  let b = stats_of (1, 2, 3, 4, 5, 6) in
  let d = Stats.diff a b in
  checki "scheduled" 10 d.Stats.events_scheduled;
  checki "processed" 20 d.Stats.events_processed;
  checki "filtered" 30 d.Stats.events_filtered;
  checki "emitted" 40 d.Stats.transitions_emitted;
  checki "annulled" 50 d.Stats.transitions_annulled;
  checki "noop" 60 d.Stats.noop_evaluations;
  (* diff then merge restores the minuend *)
  Stats.merge d b;
  checki "diff+merge roundtrip" (total a) (total d);
  (* deltas may be negative; diff of a stat against itself is zero *)
  checki "self diff" 0 (total (Stats.diff b b))

let tests =
  [
    ( "engine.drive",
      [
        Alcotest.test_case "of_levels" `Quick test_drive_of_levels;
        Alcotest.test_case "pulse" `Quick test_drive_pulse;
        Alcotest.test_case "check disorder" `Quick test_drive_check_disorder;
        Alcotest.test_case "constant" `Quick test_drive_constant;
      ] );
    ( "engine.iddm",
      [
        Alcotest.test_case "step through chain" `Quick test_step_through_chain;
        Alcotest.test_case "quiescent" `Quick test_quiescent_run;
        Alcotest.test_case "drive on non-input" `Quick test_drive_on_non_input_raises;
        Alcotest.test_case "oscillator raises" `Quick test_oscillator_raises;
        Alcotest.test_case "waveform lookup" `Quick test_waveform_lookup;
        Alcotest.test_case "output edges" `Quick test_output_edges_accessor;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "stats conservation" `Quick test_stats_conservation;
        Alcotest.test_case "max_events truncation" `Quick test_max_events_truncation;
        Alcotest.test_case "t_stop" `Quick test_t_stop;
      ] );
    ( "engine.degradation",
      [
        Alcotest.test_case "narrow pulse filtered" `Quick test_ddm_filters_narrow_pulse;
        Alcotest.test_case "cdm does not degrade" `Quick test_cdm_does_not_degrade;
        Alcotest.test_case "degradation band" `Quick test_degradation_band_exists;
        Alcotest.test_case "wide pulse preserved" `Quick
          test_wide_pulse_negligible_degradation;
        QCheck_alcotest.to_alcotest prop_ddm_pulse_transfer_monotone;
      ] );
    ( "engine.fig1",
      [
        Alcotest.test_case "threshold discrimination" `Quick test_fig1_discrimination;
        Alcotest.test_case "classic all-or-none" `Quick test_fig1_classic_all_or_none;
        Alcotest.test_case "wide pulse everywhere" `Quick test_fig1_wide_pulse_everywhere;
      ] );
    ( "engine.ablation",
      [ Alcotest.test_case "cancellation off" `Quick test_cancellation_ablation ] );
    ( "engine.feedback",
      [
        Alcotest.test_case "dc bistable" `Quick test_dc_latch_bistable;
        Alcotest.test_case "set/reset" `Quick test_latch_set_reset;
        Alcotest.test_case "holds state" `Quick test_latch_holds_state;
        Alcotest.test_case "glitch discrimination" `Quick test_latch_glitch_discrimination;
        Alcotest.test_case "classic latch" `Quick test_classic_latch;
      ] );
    ( "engine.classic",
      [
        Alcotest.test_case "step" `Quick test_classic_step;
        Alcotest.test_case "inertial filtering" `Quick test_classic_inertial_filtering;
        Alcotest.test_case "overlapping input ramps" `Quick test_classic_overlapping_input_ramps;
        Alcotest.test_case "final matches static" `Quick test_classic_final_matches_static;
        Alcotest.test_case "oscillator raises" `Quick test_classic_oscillator_raises;
      ] );
    ( "engine.stats",
      [
        Alcotest.test_case "copy and pp" `Quick test_stats_copy_pp;
        Alcotest.test_case "merge" `Quick test_stats_merge;
        Alcotest.test_case "diff" `Quick test_stats_diff;
      ] );
  ]
