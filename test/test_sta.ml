(* Tests for Halotis_sta: arrival computation, critical paths and the
   conservatism property against the event-driven engine. *)

module N = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module G = Halotis_netlist.Generators
module Sta = Halotis_sta.Sta
module Tech = Halotis_tech.Tech
module DL = Halotis_tech.Default_lib
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module D = Halotis_wave.Digital
module DM = Halotis_delay.Delay_model
module Gate_kind = Halotis_logic.Gate_kind

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let sid c n = match N.find_signal c n with Some s -> s | None -> Alcotest.failf "no %s" n

let test_chain_arrival_accumulates () =
  let c = G.inverter_chain ~n:4 () in
  let t = Sta.analyze DL.tech c in
  let arrivals =
    List.map
      (fun n ->
        let a = Sta.arrival t (sid c n) in
        Float.max a.Sta.rise_at a.Sta.fall_at)
      [ "out1"; "out2"; "out3"; "out" ]
  in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | [ _ ] | [] -> true
  in
  checkb "monotone along the chain" true (increasing arrivals);
  checkb "worst is the last stage" true
    (Float.abs (Sta.worst t -. List.nth arrivals 3) < 1e-9)

let test_worst_output () =
  let c = G.inverter_chain ~n:3 () in
  let t = Sta.analyze DL.tech c in
  (match Sta.worst_output t with
  | Some s -> Alcotest.(check string) "out" "out" (N.signal_name c s)
  | None -> Alcotest.fail "expected a worst output");
  checkb "positive" true (Sta.worst t > 0.)

let test_critical_path_chain () =
  let c = G.inverter_chain ~n:4 () in
  let t = Sta.analyze DL.tech c in
  let path = Sta.critical_path t in
  checki "four hops" 4 (List.length path);
  (* polarities alternate along an inverter chain *)
  let rec alternating = function
    | (a : Sta.path_step) :: (b :: _ as rest) ->
        a.Sta.step_rising <> b.Sta.step_rising && alternating rest
    | [ _ ] | [] -> true
  in
  checkb "alternating" true (alternating path);
  (* arrivals increase along the path *)
  let rec increasing = function
    | (a : Sta.path_step) :: (b :: _ as rest) ->
        a.Sta.step_at < b.Sta.step_at && increasing rest
    | [ _ ] | [] -> true
  in
  checkb "increasing" true (increasing path);
  checkb "pp renders" true
    (String.length (Format.asprintf "%a" (Sta.pp_path c) path) > 20)

let cyclic_circuit () =
  let b = Builder.create "cyc" in
  let a = Builder.input b "a" in
  let x = Builder.signal b "x" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g1" ~inputs:[ a; y ] ~output:x in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[ x ] ~output:y in
  Builder.mark_output b x;
  Builder.finalize b

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* Cyclic circuits used to die with a bare [Invalid_argument]; static
   analyses now raise the structured diagnostic with a cycle witness. *)
let test_cyclic_rejected () =
  let c = cyclic_circuit () in
  let expect_diag what f =
    match f () with
    | _ -> Alcotest.failf "%s accepted a cyclic circuit" what
    | exception Halotis_util.Diag.Fail d ->
        Alcotest.(check string) (what ^ " code") "cyclic-circuit" d.Halotis_util.Diag.code;
        checkb (what ^ " witness names a cycle gate") true
          (contains d.Halotis_util.Diag.message "g1"
          || contains d.Halotis_util.Diag.message "g2");
        checkb (what ^ " has a hint") true (d.Halotis_util.Diag.hint <> None)
  in
  expect_diag "Sta.analyze" (fun () -> ignore (Sta.analyze DL.tech c));
  expect_diag "Hazard.analyze" (fun () ->
      ignore (Halotis_sta.Hazard.analyze DL.tech c))

let test_constant_cone_never_switches () =
  (* a gate fed only by constants has no arrival; worst is 0 *)
  let b = Builder.create "const" in
  let zero = Builder.const b Halotis_logic.Value.L0 in
  let one = Builder.const b Halotis_logic.Value.L1 in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g" ~inputs:[ zero; one ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let t = Sta.analyze DL.tech c in
  Alcotest.(check (float 0.)) "no activity" 0. (Sta.worst t);
  checki "empty path" 0 (List.length (Sta.critical_path t))

let test_unate_polarities () =
  (* through one inverter, a rising output can only come from a falling
     input: its rise_at uses the input fall arrival *)
  let c = G.inverter_chain ~n:1 () in
  let t = Sta.analyze DL.tech c in
  let a = Sta.arrival t (sid c "out") in
  checkb "both polarities reachable" true
    (a.Sta.rise_at > 0. && a.Sta.fall_at > 0.);
  (* falling output of an inverter is the faster edge in the library *)
  checkb "fall earlier than rise" true (a.Sta.fall_at < a.Sta.rise_at)

let test_multiplier_depth_correlates () =
  let shallow = G.array_multiplier ~m:2 ~n:2 () in
  let deep = G.array_multiplier ~m:4 ~n:4 () in
  let w c = Sta.worst (Sta.analyze DL.tech c) in
  checkb "4x4 slower than 2x2" true
    (w deep.G.mult_circuit > w shallow.G.mult_circuit)

(* Conservatism: for random circuits and random vectors, every CDM-mode
   simulated edge lands at or before the STA arrival of its signal. *)
let prop_sta_bounds_simulation =
  QCheck.Test.make ~name:"STA arrival bounds every simulated edge (CDM)" ~count:20
    QCheck.(pair (int_range 5 60) (int_range 2 5))
    (fun (gates, inputs) ->
      let c = G.random_combinational ~gates ~inputs ~seed:(gates + (31 * inputs)) () in
      let t = Sta.analyze ~input_slope:100. DL.tech c in
      let rng = Halotis_util.Prng.create ~seed:gates in
      let drives =
        List.map
          (fun s ->
            (* initial level random; all switching at t = 0 *)
            ( s,
              Drive.of_levels ~slope:100. ~initial:(Halotis_util.Prng.bool rng)
                [ (0., Halotis_util.Prng.bool rng) ] ))
          (N.primary_inputs c)
      in
      let r = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) c ~drives in
      Array.for_all
        (fun (s : N.signal) ->
          let a = Sta.arrival t s.N.signal_id in
          let bound = Float.max a.Sta.rise_at a.Sta.fall_at in
          List.for_all
            (fun (e : D.edge) -> e.D.at <= bound +. 1e-6)
            (D.edges r.Iddm.waveforms.(s.N.signal_id) ~vt:2.5))
        (N.signals c))

(* --- hazard analysis --- *)

module Hazard = Halotis_sta.Hazard

let test_hazard_windows_chain () =
  (* single-input gates never collide: no sites in a chain *)
  let c = G.inverter_chain ~n:4 () in
  let h = Hazard.analyze DL.tech c in
  checki "no sites" 0 (List.length (Hazard.sites h));
  (match Hazard.window h (sid c "out") with
  | Some w -> checkb "window ordered" true (w.Hazard.earliest < w.Hazard.latest)
  | None -> Alcotest.fail "expected a window");
  checkb "deeper signals later" true
    ((match Hazard.window h (sid c "out") with Some w -> w.Hazard.earliest | None -> 0.)
    > (match Hazard.window h (sid c "out1") with Some w -> w.Hazard.earliest | None -> 0.))

let test_hazard_balanced_nand () =
  (* two inputs arriving over overlapping windows: flagged *)
  let b = Builder.create "bal" in
  let a = Builder.input b "a" in
  let x = Builder.input b "x" in
  let y = Builder.signal b "y" in
  let gid = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g" ~inputs:[ a; x ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let h = Hazard.analyze DL.tech c in
  checkb "flagged" true (Hazard.is_hazardous h gid);
  checki "one site" 1 (List.length (Hazard.sites h));
  checki "it is a timing site" 1 (List.length (Hazard.timing_sites h));
  checkb "pp renders" true
    (String.length (Format.asprintf "%a" (Hazard.pp_sites c) (Hazard.sites h)) > 5)

let test_hazard_constant_input_not_flagged () =
  (* a gate with one switching input and one tie cell cannot collide *)
  let b = Builder.create "tie" in
  let a = Builder.input b "a" in
  let one = Builder.const b Halotis_logic.Value.L1 in
  let y = Builder.signal b "y" in
  let gid = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g" ~inputs:[ a; one ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let h = Hazard.analyze DL.tech c in
  checkb "not flagged" false (Hazard.is_hazardous h gid)

let test_hazard_multiplier_sites () =
  (* the array multiplier is full of reconvergence: many sites, and
     they include XOR cells of the adders *)
  let m = G.array_multiplier ~m:4 ~n:4 () in
  let h = Hazard.analyze DL.tech m.G.mult_circuit in
  checkb "many sites" true (List.length (Hazard.sites h) > 20);
  checkb "timing sites exist" true (List.length (Hazard.timing_sites h) > 0);
  (* timing sites sorted by decreasing overlap *)
  let rec sorted = function
    | (a : Hazard.site) :: (b :: _ as rest) ->
        a.Hazard.hz_window_overlap >= b.Hazard.hz_window_overlap && sorted rest
    | [ _ ] | [] -> true
  in
  checkb "sorted" true (sorted (Hazard.timing_sites h))

(* Conservatism: any gate that *generates* a glitch in simulation
   (output pulses while each input shows at most one edge) must be a
   flagged site. *)
let prop_hazard_covers_generated_glitches =
  QCheck.Test.make ~name:"flagged sites cover generated glitches" ~count:10
    QCheck.(int_range 1 1000)
    (fun seed ->
      let m = G.array_multiplier ~m:4 ~n:4 () in
      let c = m.G.mult_circuit in
      let h = Hazard.analyze DL.tech c in
      let rng = Halotis_util.Prng.create ~seed in
      let bits v i = (v lsr i) land 1 = 1 in
      let v1 = Halotis_util.Prng.int rng ~bound:256 in
      let v2 = Halotis_util.Prng.int rng ~bound:256 in
      let drives =
        List.mapi
          (fun i s ->
            (s, Drive.of_levels ~slope:100. ~initial:(bits v1 i) [ (0., bits v2 i) ]))
          (N.primary_inputs c)
      in
      let r = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) c ~drives in
      Array.for_all
        (fun (g : N.gate) ->
          let out_pulses =
            List.length (D.pulses r.Iddm.waveforms.(g.N.output) ~vt:2.5)
          in
          if out_pulses = 0 then true
          else begin
            let inputs_monotone =
              Array.for_all
                (fun fid -> D.edge_count r.Iddm.waveforms.(fid) ~vt:2.5 <= 1)
                g.N.fanin
            in
            (not inputs_monotone) || Hazard.is_hazardous h g.N.gate_id
          end)
        (N.gates c))

(* Hazard soundness against the committed paper fixture: every digital
   edge the CDM engine produces under mult4x4.hsv lies inside some
   input-change instant's arrival-uncertainty window.  Paths anchor on
   the test binary, like test_cli.ml, so they resolve under both `dune
   runtest` and `dune exec`. *)
let data f =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "..")
    (Filename.concat "examples" (Filename.concat "data" f))

let test_hazard_soundness_mult4x4_fixture () =
  let c =
    match Halotis_netlist.Circuit_file.parse_file (data "mult4x4.hnl") with
    | Ok c -> c
    | Error e -> Alcotest.failf "mult4x4.hnl: %s" e.Halotis_netlist.Hnl.message
  in
  let stim =
    match Halotis_stim.Stimfile.parse_file (data "mult4x4.hsv") with
    | Ok s -> s
    | Error e -> Alcotest.failf "mult4x4.hsv: %s" e.Halotis_stim.Stimfile.message
  in
  let drives =
    match Halotis_stim.Stimfile.bind stim c with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let h = Hazard.analyze ~input_slope:stim.Halotis_stim.Stimfile.slope DL.tech c in
  let instants =
    List.sort_uniq compare
      (0.
      :: List.concat_map
           (fun (_, changes) -> List.map fst changes)
           stim.Halotis_stim.Stimfile.raw_changes)
  in
  let r = Iddm.run (Iddm.config ~delay_kind:DM.Cdm DL.tech) c ~drives in
  let checked = ref 0 in
  Array.iter
    (fun (s : N.signal) ->
      let edges = D.edges r.Iddm.waveforms.(s.N.signal_id) ~vt:2.5 in
      match Hazard.window h s.N.signal_id with
      | None ->
          checki (N.signal_name c s.N.signal_id ^ " cannot switch") 0
            (List.length edges)
      | Some w ->
          List.iter
            (fun (e : D.edge) ->
              incr checked;
              checkb
                (Printf.sprintf "%s edge at %.1f inside a window"
                   (N.signal_name c s.N.signal_id) e.D.at)
                true
                (List.exists
                   (fun t0 ->
                     e.D.at >= t0 +. w.Hazard.earliest -. 1e-6
                     && e.D.at <= t0 +. w.Hazard.latest +. 1e-6)
                   instants))
            edges)
    (N.signals c);
  checkb "fixture actually produced edges" true (!checked > 50)

(* --- SET survival analysis --- *)

module Survival = Halotis_sta.Survival

let test_survival_chain_map () =
  let c = G.inverter_chain ~n:4 () in
  let an = Survival.analyze DL.tech c in
  Alcotest.(check (float 0.)) "canonical width" 150. (Survival.width an);
  checkb "chain has candidates" true (Survival.candidates an <> []);
  checkb "no degenerate verdict" false (Survival.all_sites_filtered an);
  let module J = Halotis_util.Json in
  let j = Survival.to_json an in
  let rows name = match J.member name j with Some (J.Arr a) -> a | _ -> [] in
  let num field row =
    match J.member field row with Some (J.Num x) -> x | _ -> infinity
  in
  let str field row = match J.member field row with Some (J.Str s) -> s | _ -> "" in
  List.iter
    (fun g ->
      if J.member "attenuation_bound" g = Some J.Null then
        Alcotest.failf "%s filters the canonical pulse outright" (str "gate" g))
    (rows "gates");
  (* every candidate survives to the single output at some width, and
     the weakest-surviving summary agrees with the per-site bound *)
  let site_min =
    List.map (fun s -> (str "signal" s, Float.min (num "rise" s) (num "fall" s))) (rows "sites")
  in
  (match rows "outputs" with
  | [ po ] ->
      let w = num "weakest_surviving_width" po in
      Alcotest.(check string) "one output" "out" (str "output" po);
      checkb "weakest width is feasible" true (Float.is_finite w && w > 0.);
      checkb "weakest is the min over sites" true (List.exists (fun (_, m) -> m = w) site_min)
  | l -> Alcotest.failf "expected one output, got %d" (List.length l));
  checki "every candidate is a site" (List.length (Survival.candidates an)) (List.length site_min);
  (* deeper sites need wider pulses: more gates left to attenuate *)
  let min_w name = List.assoc name site_min in
  checkb "first stage needs the widest pulse" true (min_w "out1" >= min_w "out3")

let test_survival_constant_site_excluded () =
  let b = Builder.create "tie" in
  let a = Builder.input b "a" in
  let zero = Builder.const b Halotis_logic.Value.L0 in
  let x = Builder.signal b "x" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g1" ~inputs:[ a; zero ] ~output:x in
  let _ = Builder.add_gate b (Gate_kind.Or 2) ~name:"g2" ~inputs:[ x; a ] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let an = Survival.analyze DL.tech c in
  (* x is forced low by the tie: its driver is flagged blocked in the
     vulnerability map *)
  let module J = Halotis_util.Json in
  let blocked_of name =
    match J.member "gates" (Survival.to_json an) with
    | Some (J.Arr gates) ->
        List.find_map
          (fun g ->
            match (J.member "gate" g, J.member "blocked" g) with
            | Some (J.Str n), Some (J.Bool b) when n = name -> Some b
            | _ -> None)
          gates
    | _ -> None
  in
  Alcotest.(check (option bool)) "g1 blocked" (Some true) (blocked_of "g1");
  Alcotest.(check (option bool)) "g2 live" (Some false) (blocked_of "g2");
  checkb "live path keeps the circuit non-degenerate" false
    (Survival.all_sites_filtered an)

let test_survival_cyclic_rejected () =
  match Survival.analyze DL.tech (cyclic_circuit ()) with
  | _ -> Alcotest.fail "accepted a cyclic circuit"
  | exception Halotis_util.Diag.Fail d ->
      Alcotest.(check string) "code" "cyclic-circuit" d.Halotis_util.Diag.code

let test_survival_json_shape () =
  let c = G.inverter_chain ~n:3 () in
  let an = Survival.analyze DL.tech c in
  let j = Survival.to_json an in
  let member n =
    match Halotis_util.Json.member n j with
    | Some v -> v
    | None -> Alcotest.failf "missing %s" n
  in
  (match member "tool" with
  | Halotis_util.Json.Str s -> Alcotest.(check string) "tool" "halotis-survival" s
  | _ -> Alcotest.fail "tool is not a string");
  let length = function Halotis_util.Json.Arr l -> List.length l | _ -> 0 in
  checki "three gates" 3 (length (member "gates"));
  checki "one output" 1 (length (member "outputs"));
  checkb "text rendering mentions the output" true
    (contains (Format.asprintf "%a" Survival.pp_text an) "out")

let tests =
  [
    ( "sta.hazard",
      [
        Alcotest.test_case "chain has no sites" `Quick test_hazard_windows_chain;
        Alcotest.test_case "balanced nand flagged" `Quick test_hazard_balanced_nand;
        Alcotest.test_case "constant input" `Quick test_hazard_constant_input_not_flagged;
        Alcotest.test_case "multiplier sites" `Quick test_hazard_multiplier_sites;
        Alcotest.test_case "mult4x4.hsv soundness" `Quick
          test_hazard_soundness_mult4x4_fixture;
        QCheck_alcotest.to_alcotest prop_hazard_covers_generated_glitches;
      ] );
    ( "sta.survival",
      [
        Alcotest.test_case "chain map" `Quick test_survival_chain_map;
        Alcotest.test_case "blocked gate" `Quick test_survival_constant_site_excluded;
        Alcotest.test_case "cyclic rejected" `Quick test_survival_cyclic_rejected;
        Alcotest.test_case "json shape" `Quick test_survival_json_shape;
      ] );
    ( "sta",
      [
        Alcotest.test_case "chain accumulates" `Quick test_chain_arrival_accumulates;
        Alcotest.test_case "worst output" `Quick test_worst_output;
        Alcotest.test_case "critical path" `Quick test_critical_path_chain;
        Alcotest.test_case "cyclic rejected" `Quick test_cyclic_rejected;
        Alcotest.test_case "constant cone" `Quick test_constant_cone_never_switches;
        Alcotest.test_case "unate polarities" `Quick test_unate_polarities;
        Alcotest.test_case "depth correlates" `Quick test_multiplier_depth_correlates;
        QCheck_alcotest.to_alcotest prop_sta_bounds_simulation;
      ] );
  ]

let test_slack () =
  let c = G.inverter_chain ~n:3 () in
  let t = Sta.analyze DL.tech c in
  let worst = Sta.worst t in
  Alcotest.(check (float 1e-9)) "min period" worst (Sta.min_period t);
  (match Sta.slack t ~period:(worst +. 100.) with
  | [ (_, sl) ] -> Alcotest.(check (float 1e-6)) "positive slack" 100. sl
  | _ -> Alcotest.fail "one output expected");
  match Sta.slack t ~period:(worst -. 50.) with
  | [ (_, sl) ] -> checkb "violated" true (sl < 0.)
  | _ -> Alcotest.fail "one output expected"

let tests =
  tests @ [ ("sta.slack", [ Alcotest.test_case "slack" `Quick test_slack ]) ]
