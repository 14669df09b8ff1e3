(* SCALE — event-throughput scaling (extension).

   The paper claims HALOTIS' CPU time is "very similar to those from
   other logic simulators" despite the richer stimulus treatment.  We
   measure events per second of the IDDM engine against the classical
   baseline on random circuits of growing size: both are event-driven,
   so the throughput should stay flat (no superlinear blow-up) and
   within a small factor of each other.  The same sweep records the
   front end's cost per gate (HNL parse, then compile), which must stay
   flat too: a superlinear parse would dominate set-up at scale, and a
   warm DDM run's allocation (host-independent, unlike the rates). *)

open Common

let workload gates seed =
  let c = G.random_combinational ~gates ~inputs:16 ~seed () in
  let rng = Halotis_util.Prng.create ~seed:(seed * 13) in
  let drives =
    List.map
      (fun s ->
        let changes =
          List.init 10 (fun k -> (2000. *. float_of_int (k + 1), Halotis_util.Prng.bool rng))
        in
        (s, Drive.of_levels ~slope:input_slope ~initial:(Halotis_util.Prng.bool rng) changes))
      (N.primary_inputs c)
  in
  (c, drives)

let throughput run events_of (c, drives) =
  (* earlier experiments leave a large major heap behind; compact so
     the measurement reflects the engine, not inherited GC debt *)
  Gc.compact ();
  (* warm up once, then time enough repeats to fill ~0.3 s *)
  let r0 = run c drives in
  let events = events_of r0 in
  let t0 = Unix.gettimeofday () in
  let reps = ref 0 in
  while Unix.gettimeofday () -. t0 < 0.3 do
    ignore (run c drives);
    incr reps
  done;
  let dt = Unix.gettimeofday () -. t0 in
  (events, float_of_int (events * !reps) /. dt)

(* A warm run's allocation: minor words per processed event, and the
   words promoted to the major heap over the run.  The minor heap is
   emptied before it and collected after it while its result is live,
   so what the result keeps counts as promoted, at every size. *)
let allocation run events_of (c, drives) =
  ignore (run c drives);
  Gc.minor ();
  let s0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let r = run c drives in
  let minor = Gc.minor_words () -. w0 in
  Gc.minor ();
  let s1 = Gc.quick_stat () in
  ignore (Sys.opaque_identity r);
  (minor /. float_of_int (events_of r), s1.Gc.promoted_words -. s0.Gc.promoted_words)

(* Front-end cost of a circuit: parse its HNL text, then compile the
   result, each timed as the best of repeats filling ~0.2 s; in
   microseconds per gate.  Each timed call ends with a minor collection
   while its result is live, so every size pays for promoting what it
   built (a small circuit would otherwise die young, unpromoted, and
   look cheaper per gate than it is). *)
let front_end c =
  let gates = float_of_int (N.gate_count c) in
  let best f =
    let t_end = Unix.gettimeofday () +. 0.2 and best = ref infinity and reps = ref 0 in
    while !reps < 5 || Unix.gettimeofday () < t_end do
      let t0 = Unix.gettimeofday () in
      let r = f () in
      Gc.minor ();
      best := Float.min !best (Unix.gettimeofday () -. t0);
      ignore (Sys.opaque_identity r);
      incr reps
    done;
    !best *. 1e6 /. gates
  in
  let text = Halotis_netlist.Hnl.to_string c in
  let parse () =
    match Halotis_netlist.Hnl.parse_string text with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "SCALE: %a" Halotis_util.Diag.pp e
  in
  let parsed = parse () in
  Gc.compact ();
  (best parse, best (fun () -> Halotis_engine.Compiled.compile DL.tech parsed))

(* Circuit sizes, smallest first.  Overridable so CI can run a quick
   smoke (e.g. [HALOTIS_SCALE_SIZES=200]) with the same code path as
   the full sweep. *)
let sizes () =
  match Sys.getenv_opt "HALOTIS_SCALE_SIZES" with
  | None | Some "" -> [ 200; 1000; 5000 ]
  | Some s ->
      let parsed =
        List.filter_map
          (fun tok ->
            let tok = String.trim tok in
            if tok = "" then None
            else
              match int_of_string_opt tok with
              | Some n when n > 0 -> Some n
              | Some _ | None ->
                  invalid_arg
                    (Printf.sprintf "HALOTIS_SCALE_SIZES: bad size %S (want positive ints)"
                       tok))
          (String.split_on_char ',' s)
      in
      if parsed = [] then invalid_arg "HALOTIS_SCALE_SIZES: no sizes given"
      else List.sort_uniq compare parsed

let run () =
  section "SCALE -- event throughput vs circuit size (extension)";
  let sizes = sizes () in
  let results =
    List.map
      (fun gates ->
        let w = workload gates (gates + 1) in
        let ddm c drives = Iddm.run (Iddm.config DL.tech) c ~drives
        and ddm_events r = r.Iddm.stats.Stats.events_processed in
        let ev_ddm, thr_ddm = throughput ddm ddm_events w in
        let words_ddm, promoted_ddm = allocation ddm ddm_events w in
        let _, thr_classic =
          throughput
            (fun c drives -> Classic.run (Classic.config DL.tech) c ~drives)
            (fun r -> r.Classic.stats.Stats.events_processed)
            w
        in
        let parse_us, compile_us = front_end (fst w) in
        (gates, ev_ddm, thr_ddm, thr_classic, parse_us, compile_us, words_ddm, promoted_ddm))
      sizes
  in
  Table.print
    (Table.make
       ~header:
         [
           "gates"; "events (DDM)"; "DDM events/s"; "classic events/s"; "parse us/gate";
           "compile us/gate"; "DDM minor words/event"; "DDM promoted words/run";
         ]
       ~rows:
         (List.map
            (fun (g, ev, td, tc, pu, cu, mw, pw) ->
              [
                string_of_int g;
                string_of_int ev;
                Printf.sprintf "%.2fM" (td /. 1e6);
                Printf.sprintf "%.2fM" (tc /. 1e6);
                Printf.sprintf "%.2f" pu;
                Printf.sprintf "%.2f" cu;
                Printf.sprintf "%.2f" mw;
                Printf.sprintf "%.0f" pw;
              ])
            results));
  (* compare the extremes of whatever sweep ran (identical when CI
     smokes a single size) *)
  let g_small, ev_small, d_small, _, p_small, c_small, _, _ = List.hd results in
  let g_big, ev_big, d_big, c_big, p_big, cc_big, _, _ =
    List.nth results (List.length results - 1)
  in
  (* deterministic: the event count per gate must not blow up with
     size (the algorithmic claim behind "similar CPU time") *)
  let per_gate_small = float_of_int ev_small /. float_of_int g_small in
  let per_gate_big = float_of_int ev_big /. float_of_int g_big in
  let data =
    List.concat_map
      (fun (g, ev, td, tc, pu, cu, mw, pw) ->
        [
          (Printf.sprintf "ddm_events_per_s_%d" g, td);
          (Printf.sprintf "classic_events_per_s_%d" g, tc);
          (Printf.sprintf "ddm_events_%d" g, float_of_int ev);
          (Printf.sprintf "parse_us_per_gate_%d" g, pu);
          (Printf.sprintf "compile_us_per_gate_%d" g, cu);
          (Printf.sprintf "ddm_minor_words_per_event_%d" g, mw);
          (Printf.sprintf "ddm_promoted_words_%d" g, pw);
        ])
      results
  in
  [
    Experiment.make ~data ~exp_id:"SCALE" ~title:"Event throughput scaling (extension)"
      [
        Experiment.observation
          ~agrees:(per_gate_big <= 2. *. per_gate_small)
          ~metric:"work scales linearly: events per gate bounded across the size sweep"
          ~paper:"CPU time very similar to other logic simulators"
          ~measured:
            (Printf.sprintf "%.1f events/gate at %d gates, %.1f at %d" per_gate_small
               g_small per_gate_big g_big)
          ();
        Experiment.observation
          ~agrees:(d_big > c_big /. 10.)
          ~metric:"IDDM within a small factor of the classical baseline (same size, \
                   back-to-back measurement)"
          ~paper:"(same claim)"
          ~measured:
            (Printf.sprintf "at %d gates: ddm %.2fM vs classic %.2fM ev/s" g_big
               (d_big /. 1e6) (c_big /. 1e6))
          ~note:
            (Printf.sprintf
               "absolute throughput varies with host load (%.2fM ev/s at %d gates this \
                run); the paired same-size comparison is the stable signal"
               (d_small /. 1e6) g_small)
          ();
        Experiment.observation
          ~agrees:(p_big <= 2. *. p_small)
          ~metric:"front end scales linearly: HNL parse cost per gate at the largest size \
                   within 2x of the smallest"
          ~paper:"(same claim: set-up is part of the CPU time a user pays)"
          ~measured:
            (Printf.sprintf "parse %.2f us/gate at %d gates, %.2f at %d" p_small g_small p_big
               g_big)
          ~note:
            (Printf.sprintf "compile %.2f us/gate at %d gates, %.2f at %d (best of repeats)"
               c_small g_small cc_big g_big)
          ();
      ];
  ]
