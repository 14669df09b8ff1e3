(* Tests for Halotis_wave: transitions, waveform truncation semantics,
   digitization, VCD. *)

module T = Halotis_wave.Transition
module W = Halotis_wave.Waveform
module D = Halotis_wave.Digital
module Vcd = Halotis_wave.Vcd

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-6)) msg
let vdd = 5.0
let rise ~start ~tau = T.make ~start ~slope_time:tau ~polarity:T.Rising
let fall ~start ~tau = T.make ~start ~slope_time:tau ~polarity:T.Falling

(* --- Transition --- *)

(* Reference for [Waveform.last_crossing]: the instant the unbounded
   ramp [tr] from [v_start] crosses [vt], when [vt] lies strictly between
   [v_start] and the target rail (reaching the rail itself counts);
   [None] when the ramp starts at or beyond [vt].  The same float
   expressions as [Transition.value_at], so the two agree bit for bit. *)
let crossing ~vdd ~v_start (tr : T.t) ~vt =
  let slope =
    match tr.T.polarity with
    | T.Rising -> vdd /. tr.T.slope_time
    | T.Falling -> -.(vdd /. tr.T.slope_time)
  in
  let reachable =
    match tr.T.polarity with
    | T.Rising -> v_start < vt && vt <= vdd
    | T.Falling -> v_start > vt && vt >= 0.
  in
  if reachable then Some (tr.T.start +. ((vt -. v_start) /. slope)) else None

let test_transition_validation () =
  checkb "bad tau" true
    (try
       ignore (T.make ~start:0. ~slope_time:0. ~polarity:T.Rising);
       false
     with Invalid_argument _ -> true);
  checkb "nan start" true
    (try
       ignore (T.make ~start:Float.nan ~slope_time:1. ~polarity:T.Rising);
       false
     with Invalid_argument _ -> true)

let test_transition_value () =
  let tr = rise ~start:100. ~tau:100. in
  checkf "at start" 0. (T.value_at ~vdd ~v_start:0. tr 100.);
  checkf "mid" 2.5 (T.value_at ~vdd ~v_start:0. tr 150.);
  checkf "end" 5. (T.value_at ~vdd ~v_start:0. tr 200.);
  checkf "saturates" 5. (T.value_at ~vdd ~v_start:0. tr 1000.);
  let tf = fall ~start:0. ~tau:200. in
  checkf "fall mid" 2.5 (T.value_at ~vdd ~v_start:5. tf 100.);
  checkf "fall saturates" 0. (T.value_at ~vdd ~v_start:5. tf 999.)

let test_transition_crossing () =
  let tr = rise ~start:100. ~tau:100. in
  (match crossing ~vdd ~v_start:0. tr ~vt:2.5 with
  | Some c -> checkf "cross mid" 150. c
  | None -> Alcotest.fail "expected crossing");
  checkb "already above" true (crossing ~vdd ~v_start:3. tr ~vt:2.5 = None);
  (* partial start voltage *)
  (match crossing ~vdd ~v_start:2. tr ~vt:4.5 with
  | Some c -> checkf "from 2V" (100. +. (2.5 /. 5. *. 100.)) c
  | None -> Alcotest.fail "expected crossing");
  let tf = fall ~start:0. ~tau:100. in
  (match crossing ~vdd ~v_start:5. tf ~vt:2.5 with
  | Some c -> checkf "fall cross" 50. c
  | None -> Alcotest.fail "expected crossing");
  checkb "fall below" true (crossing ~vdd ~v_start:1. tf ~vt:2.5 = None)

let test_polarity_helpers () =
  checkb "opp" true (T.opposite T.Rising = T.Falling);
  checkb "opp2" true (T.opposite T.Falling = T.Rising);
  checkb "eq" true (T.equal_polarity T.Rising T.Rising);
  checkb "neq" false (T.equal_polarity T.Rising T.Falling);
  checkf "target r" vdd (T.target ~vdd (rise ~start:0. ~tau:1.));
  checkf "target f" 0. (T.target ~vdd (fall ~start:0. ~tau:1.))

(* --- Waveform --- *)

(* [W.append] through its scalar core, so a test reads what the
   library reports it did ([W.accepted], [W.annulled]). *)
let append w (tr : T.t) =
  W.append_ramp w ~start:tr.T.start ~slope_time:tr.T.slope_time
    ~rising:(tr.T.polarity = T.Rising)

let test_waveform_flat () =
  let w = W.create ~vdd () in
  checkf "initial" 0. (W.value_at w 123.);
  checkb "no last" true (Float.is_nan (W.last_start_or_nan w));
  checkb "no crossing" true (Float.is_nan (W.last_crossing w ~vt:2.5));
  checki "no edges" 0 (D.edge_count w ~vt:2.5)

let test_waveform_step () =
  let w = W.create ~vdd () in
  let o = append w (rise ~start:100. ~tau:100.) in
  checkb "accepted" true (W.accepted o);
  checki "nothing dropped" 0 (W.annulled o);
  checkf "before" 0. (W.value_at w 50.);
  checkf "mid" 2.5 (W.value_at w 150.);
  checkf "after" 5. (W.value_at w 500.);
  checkf "last start" 100. (W.last_start_or_nan w)

let test_waveform_noop_append () =
  let w = W.create ~vdd () in
  (* falling while already at 0 V: rejected *)
  let o = append w (fall ~start:100. ~tau:100.) in
  checkb "not accepted" false (W.accepted o);
  checki "no segments" 0 (W.segment_count w);
  (* rising to the rail then rising again: second is a no-op *)
  W.append w (rise ~start:200. ~tau:100.);
  let o2 = append w (rise ~start:1000. ~tau:50.) in
  checkb "second rise rejected" false (W.accepted o2)

let test_waveform_full_pulse () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  W.append w (fall ~start:400. ~tau:100.);
  checkf "plateau" 5. (W.value_at w 300.);
  checkf "fall mid" 2.5 (W.value_at w 450.);
  checkf "after" 0. (W.value_at w 600.);
  checki "two edges" 2 (D.edge_count w ~vt:2.5);
  match D.pulses w ~vt:2.5 with
  | [ p ] ->
      checkb "positive" true p.D.positive;
      checkf "width" 300. p.D.width
  | l -> Alcotest.failf "expected one pulse, got %d" (List.length l)

let test_waveform_runt_truncation () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  (* reverse at 40% of the swing: peak 2 V *)
  let o = append w (fall ~start:140. ~tau:100.) in
  checkb "accepted" true (W.accepted o);
  checki "nothing dropped" 0 (W.annulled o);
  checkf "peak" 2. (W.value_at w 140.);
  checkf "back to zero" 0. (W.value_at w 300.);
  checki "invisible at 2.5" 0 (D.edge_count w ~vt:2.5);
  checki "visible at 1.0" 2 (D.edge_count w ~vt:1.0);
  match D.runts w with
  | [ r ] ->
      checkf "runt peak" 2. r.D.peak;
      checkb "upward" true r.D.upward
  | l -> Alcotest.failf "expected one runt, got %d" (List.length l)

let test_waveform_annul () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  W.append w (fall ~start:400. ~tau:100.);
  (* a transition starting before both wipes them *)
  let o = append w (rise ~start:50. ~tau:10.) in
  checki "dropped both" 2 (W.annulled o);
  checkb "accepted" true (W.accepted o);
  checki "one segment" 1 (W.segment_count w);
  checkf "fast rise" 5. (W.value_at w 61.)

let test_waveform_annul_to_noop () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  (* wipe the rise and fall from 0 V: voltage never moved, so the fall
     must be rejected too *)
  let o = append w (fall ~start:100. ~tau:50.) in
  checki "dropped rise" 1 (W.annulled o);
  checkb "noop fall" false (W.accepted o);
  checki "empty" 0 (W.segment_count w);
  checkf "still zero" 0. (W.value_at w 1000.)

let test_waveform_same_polarity_resume () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:200.);
  W.append w (fall ~start:150. ~tau:200.);
  (* rise again from the partial fall: same polarity as first, fine *)
  let o = append w (rise ~start:180. ~tau:100.) in
  checkb "accepted" true (W.accepted o);
  checki "three segments" 3 (W.segment_count w);
  checkf "ends high" 5. (W.value_at w 1000.)

let test_crossing_of_last () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  checkf "crossing" 180. (W.last_crossing w ~vt:4.);
  W.append w (fall ~start:150. ~tau:100.);
  (* fall starts at 2.5 V: crossing of 4.0 V is impossible now *)
  checkb "unreachable" true (Float.is_nan (W.last_crossing w ~vt:4.));
  checkf "fall crossing" (150. +. (1.5 /. 5. *. 100.)) (W.last_crossing w ~vt:1.)

let test_crossings_skip_truncated () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  W.append w (fall ~start:130. ~tau:100.);
  (* peak 1.5 V: a 2.0 V observer sees nothing, and in particular not
     the would-be rising crossing at t=140 *)
  checki "nothing at 2.0" 0 (List.length (W.crossings w ~vt:2.0));
  checki "pair at 1.0" 2 (List.length (W.crossings w ~vt:1.0))

let test_initial_high_waveform () =
  let w = W.create ~initial:vdd ~vdd () in
  W.append w (fall ~start:100. ~tau:100.);
  checkf "before" 5. (W.value_at w 0.);
  checkf "after" 0. (W.value_at w 300.);
  (match D.edges w ~vt:2.5 with
  | [ { D.polarity = p; _ } ] -> checkb "falling" true (T.equal_polarity p T.Falling)
  | l -> Alcotest.failf "expected one edge, got %d" (List.length l));
  checkb "final low" false (D.final_level w ~vt:2.5)

let test_level_at () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  W.append w (fall ~start:400. ~tau:100.);
  checkb "before" false (D.level_at w ~vt:2.5 100.);
  checkb "during" true (D.level_at w ~vt:2.5 300.);
  checkb "after" false (D.level_at w ~vt:2.5 600.)

let test_sample () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:0. ~tau:100.);
  let samples = List.init 5 (fun i -> W.value_at w (25. *. float_of_int i)) in
  checkf "start" 0. (List.hd samples);
  checkf "midpoint" 2.5 (List.nth samples 2)

(* Random well-formed waveform construction for properties: alternate
   polarities with positive gaps, which cannot produce annulments. *)
let gen_clean_waveform =
  QCheck.Gen.(
    let* n = int_range 1 12 in
    let* gaps = list_size (return n) (float_range 10. 500.) in
    let* taus = list_size (return n) (float_range 5. 300.) in
    return (gaps, taus))

let build_clean (gaps, taus) =
  let w = W.create ~vdd () in
  let t = ref 0. in
  List.iteri
    (fun i (gap, tau) ->
      t := !t +. gap;
      let polarity = if i mod 2 = 0 then T.Rising else T.Falling in
      W.append w (T.make ~start:!t ~slope_time:tau ~polarity))
    (List.combine gaps taus);
  w

let prop_crossings_alternate =
  QCheck.Test.make ~name:"crossings alternate in polarity" ~count:300
    (QCheck.make gen_clean_waveform) (fun spec ->
      let w = build_clean spec in
      List.for_all
        (fun vt ->
          let cs = W.crossings w ~vt in
          let rec alternating = function
            | (_, p1) :: ((_, p2) :: _ as rest) ->
                (not (T.equal_polarity p1 p2)) && alternating rest
            | [ _ ] | [] -> true
          in
          alternating cs)
        [ 0.5; 1.5; 2.5; 3.5; 4.5 ])

let prop_crossings_time_ordered =
  QCheck.Test.make ~name:"crossings are time ordered" ~count:300
    (QCheck.make gen_clean_waveform) (fun spec ->
      let w = build_clean spec in
      List.for_all
        (fun vt ->
          let ts = List.map fst (W.crossings w ~vt) in
          let rec sorted = function
            | a :: (b :: _ as rest) -> a <= b && sorted rest
            | [ _ ] | [] -> true
          in
          sorted ts)
        [ 1.0; 2.5; 4.0 ])

let prop_value_within_rails =
  QCheck.Test.make ~name:"waveform voltage stays within rails" ~count:300
    (QCheck.make QCheck.Gen.(pair gen_clean_waveform (float_range 0. 5000.)))
    (fun (spec, t) ->
      let w = build_clean spec in
      let v = W.value_at w t in
      v >= 0. && v <= vdd)

let prop_final_level_matches_value =
  QCheck.Test.make ~name:"final level agrees with late voltage" ~count:300
    (QCheck.make gen_clean_waveform) (fun spec ->
      let w = build_clean spec in
      let late = W.value_at w 1e9 in
      (* skip knife-edge cases where the final voltage sits at vt *)
      let vt = 2.5 in
      if Float.abs (late -. vt) < 0.01 then true
      else D.final_level w ~vt = (late > vt))

(* Appending with arbitrary (unordered) starts must preserve the
   invariant that stored segments are strictly increasing in start. *)
let prop_segments_strictly_increasing =
  QCheck.Test.make ~name:"segments strictly increasing after chaotic appends" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 15)
              (triple (float_range 0. 1000.) (float_range 1. 200.) bool))
    (fun specs ->
      let w = W.create ~vdd () in
      List.iter
        (fun (start, tau, up) ->
          let polarity = if up then T.Rising else T.Falling in
          W.append w (T.make ~start ~slope_time:tau ~polarity))
        specs;
      let rec increasing = function
        | (s1 : W.segment) :: (s2 :: _ as rest) ->
            s1.W.transition.T.start < s2.W.transition.T.start && increasing rest
        | [ _ ] | [] -> true
      in
      increasing (W.segments w))

let prop_dropped_count_conservation =
  QCheck.Test.make ~name:"appends = live segments + dropped + rejected" ~count:300
    QCheck.(list_of_size (QCheck.Gen.int_range 1 15)
              (triple (float_range 0. 1000.) (float_range 1. 200.) bool))
    (fun specs ->
      let w = W.create ~vdd () in
      let dropped = ref 0 and rejected = ref 0 in
      List.iter
        (fun (start, tau, up) ->
          let polarity = if up then T.Rising else T.Falling in
          let o = append w (T.make ~start ~slope_time:tau ~polarity) in
          dropped := !dropped + W.annulled o;
          if not (W.accepted o) then incr rejected)
        specs;
      List.length specs = W.segment_count w + !dropped + !rejected)

(* The record [append] against the scalar core [append_ramp], and both
   against a list model that evaluates ramps with [Transition]'s record
   math.  Starts land after a stored segment, on one or before it
   (annulling the tail); short ramps reach the rail, so same-polarity
   follow-ups are rejected; a few ramps are invalid, and the core must
   refuse exactly those [Transition.make] refuses. *)
type ramp_start = After of float | On of int | Bad_start of float

let gen_ramps =
  QCheck.Gen.(
    let start =
      frequency
        [
          (6, map (fun g -> After g) (float_range (-250.) 400.));
          (3, map (fun i -> On i) (int_range 0 15));
          (1, map (fun x -> Bad_start x) (oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]));
        ]
    in
    let tau =
      frequency [ (9, float_range 1. 300.); (1, oneofl [ 0.; -5.; Float.nan; Float.infinity ]) ]
    in
    pair bool (list_size (int_range 1 25) (triple start tau bool)))

let print_ramps (high, ops) =
  Printf.sprintf "initial %s: %s"
    (if high then "high" else "low")
    (String.concat "; "
       (List.map
          (fun (where, tau, up) ->
            Printf.sprintf "%s tau=%g %s"
              (match where with
              | After g -> Printf.sprintf "after %+g" g
              | On i -> Printf.sprintf "on #%d" i
              | Bad_start x -> Printf.sprintf "at %g" x)
              tau
              (if up then "rise" else "fall"))
          ops))

let prop_append_core_matches_record =
  QCheck.Test.make ~name:"append_ramp == append == Transition math" ~count:500
    (QCheck.make ~print:print_ramps gen_ramps) (fun (high, ops) ->
      let initial = if high then vdd else 0. in
      let wr = W.create ~initial ~vdd () and ws = W.create ~initial ~vdd () in
      (* the model: (transition, start voltage), newest first *)
      let model = ref [] in
      List.iter
        (fun (where, tau, up) ->
          let start =
            match (where, !model) with
            | After g, (tr, _) :: _ -> tr.T.start +. g
            | After g, [] -> g
            | On i, (_ :: _ as segs) -> (fst (List.nth segs (i mod List.length segs))).T.start
            | On _, [] -> 0.
            | Bad_start x, _ -> x
          in
          let polarity = if up then T.Rising else T.Falling in
          (match T.make ~start ~slope_time:tau ~polarity with
          | exception Invalid_argument _ -> (
              match W.append_ramp ws ~start ~slope_time:tau ~rising:up with
              | _ -> Alcotest.failf "append_ramp stored start %g, slope %g" start tau
              | exception Invalid_argument _ -> ())
          | tr ->
              W.append wr tr;
              let r = W.append_ramp ws ~start ~slope_time:tau ~rising:up in
              let kept, dropped = List.partition (fun (t, _) -> t.T.start < start) !model in
              let v_start =
                match kept with [] -> initial | (t, v) :: _ -> T.value_at ~vdd ~v_start:v t start
              in
              let accepted = not (if up then v_start >= vdd else v_start <= 0.) in
              model := if accepted then (tr, v_start) :: kept else kept;
              if W.accepted r <> accepted then
                Alcotest.failf "accepted: core %b, model %b" (W.accepted r) accepted;
              if W.annulled r <> List.length dropped then
                Alcotest.failf "core annulled %d, model %d" (W.annulled r) (List.length dropped));
          if not (W.equal wr ws) then Alcotest.failf "record and core waveforms differ";
          let expect =
            List.rev_map (fun (transition, v_start) -> { W.transition; v_start }) !model
          in
          if W.segments wr <> expect then Alcotest.failf "segments differ from the model";
          (* the inline segment math against [Transition]'s *)
          (match !model with
          | [] -> ()
          | (tr, v) :: _ ->
              List.iter
                (fun vt ->
                  let c = W.last_crossing wr ~vt in
                  match crossing ~vdd ~v_start:v tr ~vt with
                  | Some e when c = e -> ()
                  | None when Float.is_nan c -> ()
                  | _ -> Alcotest.failf "last_crossing at vt %g: %g" vt c)
                [ 0.; 1.2; 2.5; 4.9; vdd ];
              let t = tr.T.start +. 37. in
              if W.value_at wr t <> T.value_at ~vdd ~v_start:v tr t then
                Alcotest.failf "value_at %g differs from Transition.value_at" t))
        ops;
      true)

(* --- Compare --- *)

module C = Halotis_wave.Compare

let edge at polarity = { D.at; polarity }

let test_compare_identical () =
  let es = [ edge 100. T.Rising; edge 500. T.Falling ] in
  let r = C.edges ~tolerance:50. ~reference:es ~candidate:es in
  checki "matched" 2 r.C.matched;
  checkb "perfect" true (C.perfect r);
  checkf "agreement" 1.0 (C.agreement r);
  checkf "mean offset" 0. r.C.mean_offset

let test_compare_offsets () =
  let reference = [ edge 100. T.Rising; edge 500. T.Falling ] in
  let candidate = [ edge 130. T.Rising; edge 490. T.Falling ] in
  let r = C.edges ~tolerance:50. ~reference ~candidate in
  checki "matched" 2 r.C.matched;
  checkf "mean" 20. r.C.mean_offset;
  checkf "max" 30. r.C.max_offset

let test_compare_missing_extra () =
  let reference = [ edge 100. T.Rising; edge 500. T.Falling ] in
  let candidate = [ edge 100. T.Rising ] in
  let r = C.edges ~tolerance:50. ~reference ~candidate in
  checki "matched" 1 r.C.matched;
  checki "missing" 1 r.C.missing;
  checki "extra" 0 r.C.extra;
  checkb "not perfect" false (C.perfect r);
  let r2 = C.edges ~tolerance:50. ~reference:candidate ~candidate:reference in
  checki "extra2" 1 r2.C.extra

let test_compare_polarity_mismatch () =
  let reference = [ edge 100. T.Rising ] in
  let candidate = [ edge 100. T.Falling ] in
  let r = C.edges ~tolerance:50. ~reference ~candidate in
  checki "no match" 0 r.C.matched;
  checki "one missing" 1 r.C.missing;
  checki "one extra" 1 r.C.extra

let test_compare_empty () =
  let r = C.edges ~tolerance:50. ~reference:[] ~candidate:[] in
  checkf "agreement of empties" 1.0 (C.agreement r)

let test_compare_merge () =
  let mk matched missing extra mean maxo =
    { C.matched; missing; extra; mean_offset = mean; max_offset = maxo }
  in
  let m = C.merge [ mk 2 0 1 10. 15.; mk 2 1 0 30. 40. ] in
  checki "matched" 4 m.C.matched;
  checki "missing" 1 m.C.missing;
  checki "extra" 1 m.C.extra;
  checkf "weighted mean" 20. m.C.mean_offset;
  checkf "max" 40. m.C.max_offset

(* --- VCD --- *)

(* The document [Vcd.write_file] writes for [dumps]. *)
let vcd_text dumps =
  let path = Filename.temp_file "halotis" ".vcd" in
  Vcd.write_file path dumps;
  let text = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  text

let test_vcd_render () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:100. ~tau:100.);
  W.append w (fall ~start:400. ~tau:100.);
  let dump = Vcd.of_waveform ~name:"sig_a" ~vt:2.5 w in
  let text = vcd_text [ dump ] in
  checkb "header" true (String.length text > 0);
  let contains needle =
    let rec scan i =
      if i + String.length needle > String.length text then false
      else if String.sub text i (String.length needle) = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  checkb "has var" true (contains "$var wire 1 ! sig_a $end");
  checkb "has timescale" true (contains "$timescale 1ps $end");
  checkb "has rise tick" true (contains "#150");
  checkb "has fall tick" true (contains "#450")

let test_vcd_multi_signal_idents () =
  let w1 = W.create ~vdd () in
  let w2 = W.create ~initial:vdd ~vdd () in
  W.append w1 (rise ~start:10. ~tau:10.);
  let dumps =
    [ Vcd.of_waveform ~name:"a" ~vt:2.5 w1; Vcd.of_waveform ~name:"b" ~vt:2.5 w2 ]
  in
  let text = vcd_text dumps in
  let count_sub needle =
    let rec scan i acc =
      if i + String.length needle > String.length text then acc
      else if String.sub text i (String.length needle) = needle then
        scan (i + 1) (acc + 1)
      else scan (i + 1) acc
    in
    scan 0 0
  in
  checki "two vars" 2 (count_sub "$var wire 1 ");
  checkb "initial b high" true (count_sub "1\"" >= 1)

let test_vcd_write_file () =
  let w = W.create ~vdd () in
  W.append w (rise ~start:10. ~tau:10.);
  let path = Filename.temp_file "halotis" ".vcd" in
  Vcd.write_file path [ Vcd.of_waveform ~name:"x" ~vt:2.5 w ];
  let ic = open_in path in
  let len = in_channel_length ic in
  close_in ic;
  Sys.remove path;
  checkb "non-empty" true (len > 50)

(* --- VCD reader --- *)

module Vr = Halotis_wave.Vcd_reader

(* [Vr.parse_file] on a file holding [text]. *)
let parse_vcd text =
  let path = Filename.temp_file "halotis" ".vcd" in
  Out_channel.with_open_text path (fun oc -> output_string oc text);
  let parsed = Vr.parse_file path in
  Sys.remove path;
  parsed

let test_vcd_roundtrip () =
  let w1 = W.create ~vdd () in
  W.append w1 (rise ~start:100. ~tau:100.);
  W.append w1 (fall ~start:400. ~tau:100.);
  let w2 = W.create ~initial:vdd ~vdd () in
  W.append w2 (fall ~start:700. ~tau:100.);
  let text =
    vcd_text
      [ Vcd.of_waveform ~name:"a" ~vt:2.5 w1; Vcd.of_waveform ~name:"b" ~vt:2.5 w2 ]
  in
  match parse_vcd text with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok t -> (
      checkf "timescale" 1. t.Vr.timescale_ps;
      checki "two signals" 2 (List.length t.Vr.signals);
      (match Vr.find t "a" with
      | Some s ->
          checkb "a initial low" false s.Vr.rd_initial;
          checki "a edges" 2 (List.length s.Vr.rd_edges);
          (* writer rounds to 1 ps *)
          (match s.Vr.rd_edges with
          | [ e1; e2 ] ->
              checkb "rise time" true (Float.abs (e1.D.at -. 150.) < 1.);
              checkb "fall time" true (Float.abs (e2.D.at -. 450.) < 1.)
          | _ -> Alcotest.fail "shape")
      | None -> Alcotest.fail "a missing");
      match Vr.find t "b" with
      | Some s ->
          checkb "b initial high" true s.Vr.rd_initial;
          checki "b edges" 1 (List.length s.Vr.rd_edges)
      | None -> Alcotest.fail "b missing")

let test_vcd_reader_timescale () =
  let text = "$timescale 10ns $end\n$var wire 1 ! x $end\n$enddefinitions $end\n$dumpvars\n0!\n$end\n#5\n1!\n" in
  match parse_vcd text with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok t -> (
      checkf "scale" 10000. t.Vr.timescale_ps;
      match Vr.find t "x" with
      | Some s -> (
          match s.Vr.rd_edges with
          | [ e ] -> checkf "scaled time" 50000. e.D.at
          | _ -> Alcotest.fail "one edge expected")
      | None -> Alcotest.fail "x missing")

let test_vcd_reader_first_change_late () =
  (* first record at t > 0: the initial level is inferred as the
     opposite so the change is a real edge *)
  let text = "$var wire 1 ! x $end\n#100\n1!\n" in
  match parse_vcd text with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok t -> (
      match Vr.find t "x" with
      | Some s ->
          checkb "initial inferred low" false s.Vr.rd_initial;
          checki "edge" 1 (List.length s.Vr.rd_edges)
      | None -> Alcotest.fail "x missing")

let test_vcd_reader_errors () =
  let expect_error text =
    match parse_vcd text with Ok _ -> Alcotest.failf "expected error for %S" text | Error _ -> ()
  in
  expect_error "$var wire 8 ! bus $end\nb1010 !\n";
  expect_error "$var wire 1 ! x $end\nx!\n";
  expect_error "1!\n";
  expect_error "$timescale 1lightyear $end\n";
  expect_error "$var wire 1 ! x $end\n#oops\n";
  expect_error "$timescale 1ps\n" (* missing $end *)

let test_vcd_reader_duplicate_changes () =
  (* repeated same-value changes collapse into nothing *)
  let text = "$var wire 1 ! x $end\n$dumpvars\n0!\n$end\n#10\n1!\n#20\n1!\n#30\n0!\n" in
  match parse_vcd text with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok t -> (
      match Vr.find t "x" with
      | Some s -> checki "two real edges" 2 (List.length s.Vr.rd_edges)
      | None -> Alcotest.fail "x missing")

let tests =
  [
    ( "wave.transition",
      [
        Alcotest.test_case "validation" `Quick test_transition_validation;
        Alcotest.test_case "value" `Quick test_transition_value;
        Alcotest.test_case "crossing" `Quick test_transition_crossing;
        Alcotest.test_case "polarity helpers" `Quick test_polarity_helpers;
      ] );
    ( "wave.waveform",
      [
        Alcotest.test_case "flat" `Quick test_waveform_flat;
        Alcotest.test_case "step" `Quick test_waveform_step;
        Alcotest.test_case "no-op append" `Quick test_waveform_noop_append;
        Alcotest.test_case "full pulse" `Quick test_waveform_full_pulse;
        Alcotest.test_case "runt truncation" `Quick test_waveform_runt_truncation;
        Alcotest.test_case "annul" `Quick test_waveform_annul;
        Alcotest.test_case "annul to no-op" `Quick test_waveform_annul_to_noop;
        Alcotest.test_case "same-polarity resume" `Quick test_waveform_same_polarity_resume;
        Alcotest.test_case "crossing of last" `Quick test_crossing_of_last;
        Alcotest.test_case "crossings skip truncated" `Quick test_crossings_skip_truncated;
        Alcotest.test_case "initial high" `Quick test_initial_high_waveform;
        Alcotest.test_case "level_at" `Quick test_level_at;
        Alcotest.test_case "sample" `Quick test_sample;
        QCheck_alcotest.to_alcotest prop_crossings_alternate;
        QCheck_alcotest.to_alcotest prop_crossings_time_ordered;
        QCheck_alcotest.to_alcotest prop_value_within_rails;
        QCheck_alcotest.to_alcotest prop_final_level_matches_value;
        QCheck_alcotest.to_alcotest prop_segments_strictly_increasing;
        QCheck_alcotest.to_alcotest prop_dropped_count_conservation;
        QCheck_alcotest.to_alcotest prop_append_core_matches_record;
      ] );
    ( "wave.compare",
      [
        Alcotest.test_case "identical" `Quick test_compare_identical;
        Alcotest.test_case "offsets" `Quick test_compare_offsets;
        Alcotest.test_case "missing/extra" `Quick test_compare_missing_extra;
        Alcotest.test_case "polarity mismatch" `Quick test_compare_polarity_mismatch;
        Alcotest.test_case "empty" `Quick test_compare_empty;
        Alcotest.test_case "merge" `Quick test_compare_merge;
      ] );
    ( "wave.vcd",
      [
        Alcotest.test_case "render" `Quick test_vcd_render;
        Alcotest.test_case "multi-signal idents" `Quick test_vcd_multi_signal_idents;
        Alcotest.test_case "write file" `Quick test_vcd_write_file;
        Alcotest.test_case "reader roundtrip" `Quick test_vcd_roundtrip;
        Alcotest.test_case "reader timescale" `Quick test_vcd_reader_timescale;
        Alcotest.test_case "reader late first change" `Quick test_vcd_reader_first_change_late;
        Alcotest.test_case "reader errors" `Quick test_vcd_reader_errors;
        Alcotest.test_case "reader duplicate changes" `Quick test_vcd_reader_duplicate_changes;
      ] );
  ]

(* --- Measure --- *)

module M = Halotis_wave.Measure

let test_measure_latencies () =
  let e at polarity = { D.at; polarity } in
  let cause = [ e 100. T.Rising; e 500. T.Falling ] in
  let response = [ e 180. T.Falling; e 620. T.Rising ] in
  let ls = M.latencies ~cause ~response in
  Alcotest.(check (list (float 1e-9))) "pairs" [ 80.; 120. ] ls;
  match M.stats ls with
  | Some s ->
      checki "count" 2 s.M.count;
      checkf "min" 80. s.M.min_ps;
      checkf "max" 120. s.M.max_ps;
      checkf "mean" 100. s.M.mean_ps;
      checkb "pp" true (String.length (Format.asprintf "%a" M.pp_stats s) > 5)
  | None -> Alcotest.fail "stats expected"

let test_measure_empty () =
  checkb "none" true (M.stats [] = None);
  checkb "unmatched skipped" true
    (M.latencies ~cause:[ { D.at = 10.; polarity = T.Rising } ] ~response:[] = [])

let tests =
  tests
  @ [
      ( "wave.measure",
        [
          Alcotest.test_case "latencies" `Quick test_measure_latencies;
          Alcotest.test_case "empty" `Quick test_measure_empty;
        ] );
    ]
