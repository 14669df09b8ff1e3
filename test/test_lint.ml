(* Tests for Halotis_lint: JSON round-trips, the rule registry, and the
   four rule domains on hand-crafted flawed inputs. *)

module Json = Halotis_util.Json
module Finding = Halotis_lint.Finding
module Rule = Halotis_lint.Rule
module Lint = Halotis_lint.Lint
module Netlist_rules = Halotis_lint.Netlist_rules
module Tech_rules = Halotis_lint.Tech_rules
module Liberty_rules = Halotis_lint.Liberty_rules
module Survival_rules = Halotis_lint.Survival_rules
module Stim_rules = Halotis_lint.Stim_rules
module N = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value
module Tech = Halotis_tech.Tech
module DL = Halotis_tech.Default_lib
module Liberty = Halotis_liberty.Liberty
module Stimfile = Halotis_stim.Stimfile

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let cfg = Rule.default_config

let rules_fired findings =
  List.sort_uniq String.compare (List.map (fun (f : Finding.t) -> f.Finding.rule) findings)

let fired id findings = List.mem id (rules_fired findings)

(* --- Json --- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "he said \"hi\"\n\ttab");
        ("count", Json.Num 42.);
        ("ratio", Json.Num 1.5);
        ("neg", Json.Num (-3.25));
        ("flag", Json.Bool true);
        ("nothing", Json.Null);
        ("items", Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Arr []; Json.Obj [] ]);
      ]
  in
  (match Json.parse (Json.to_string v) with
  | Ok v2 -> checkb "pretty round-trip" true (v = v2)
  | Error e -> Alcotest.fail e);
  match Json.parse (Json.to_string ~indent:false v) with
  | Ok v2 -> checkb "compact round-trip" true (v = v2)
  | Error e -> Alcotest.fail e

let test_json_parse_misc () =
  checkb "unicode escape" true
    (Json.parse {|"aéb"|} = Ok (Json.Str "a\xc3\xa9b"));
  checkb "scientific" true (Json.parse "1.5e3" = Ok (Json.Num 1500.));
  checkb "ws tolerated" true (Json.parse "  [ 1 , 2 ]  " = Ok (Json.Arr [ Json.Num 1.; Json.Num 2. ]));
  checkb "trailing garbage rejected" true (Result.is_error (Json.parse "{} x"));
  checkb "unterminated rejected" true (Result.is_error (Json.parse "[1, 2"));
  checkb "bad literal rejected" true (Result.is_error (Json.parse "flase"))

let test_finding_json_roundtrip () =
  let all_locs =
    [
      Finding.Circuit;
      Finding.Signal "n1";
      Finding.Gate "g1";
      Finding.Gates [ "f1"; "f2"; "f3" ];
      Finding.Pin ("g.with.dots", 2);
      Finding.Kind "nand2";
      Finding.Cell "inv";
      Finding.Entry "a0";
    ]
  in
  List.iter
    (fun location ->
      let f =
        {
          Finding.rule = "NL001";
          severity = Finding.Warning;
          domain = Finding.Netlist;
          location;
          message = "msg with \"quotes\"";
        }
      in
      match Ref_findings.finding_of_json (Finding.to_json f) with
      | Ok f2 -> checkb "finding round-trip" true (f = f2)
      | Error e -> Alcotest.fail e)
    all_locs

let test_report_json_roundtrip () =
  let b = Builder.create "loose" in
  let a = Builder.input b "a" in
  let ghost = Builder.signal b "ghost" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g" ~inputs:[| a; ghost |] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let findings = Lint.run c in
  checkb "has findings" true (findings <> []);
  let doc = Json.to_string (Lint.report_to_json findings) in
  match Json.parse doc with
  | Error e -> Alcotest.fail e
  | Ok j -> (
      match Ref_findings.findings_of_json j with
      | Error e -> Alcotest.fail e
      | Ok back -> checkb "findings survive the document" true (back = findings))

(* --- registry --- *)

let test_registry_sane () =
  let ids = List.map (fun (r : Rule.t) -> r.Rule.id) Rule.all in
  checki "unique ids" (List.length ids) (List.length (List.sort_uniq String.compare ids));
  List.iter
    (fun (r : Rule.t) ->
      checkb (r.Rule.id ^ " has doc") true (String.length r.Rule.doc > 10);
      checkb (r.Rule.id ^ " has example") true (String.length r.Rule.example > 0);
      let prefix = String.sub r.Rule.id 0 2 in
      let expected =
        match r.Rule.domain with
        | Finding.Netlist -> "NL"
        | Finding.Tech -> "TK"
        | Finding.Liberty -> "LB"
        | Finding.Stim -> "ST"
      in
      checks (r.Rule.id ^ " prefix") expected prefix)
    Rule.all;
  checkb "find is case-insensitive" true (Rule.find "nl003" = Some Rule.nl003);
  checkb "unknown id" true (Rule.find "XX999" = None)

let test_config_overrides () =
  let config =
    {
      cfg with
      Rule.overrides =
        [ ("NL001", `Off); ("nl001", `On); ("NL002", `Off); ("NL003", `Severity Finding.Info) ];
    }
  in
  checkb "last wins: re-enabled" true (Rule.enabled config Rule.nl001);
  checkb "disabled" false (Rule.enabled config Rule.nl002);
  let severity rule =
    Option.map
      (fun (f : Finding.t) -> f.Finding.severity)
      (Rule.emit config rule Finding.Circuit "x")
  in
  checkb "default severity" true (severity Rule.nl001 = Some Finding.Error);
  checkb "overridden severity" true (severity Rule.nl003 = Some Finding.Info)

(* --- netlist rules --- *)

(* Two independent feedback pairs, one fed from a PI, one self-fed;
   plus an undriven fanin, a dangling wire, an unused PI and a
   constant-folded gate. *)
let flawed_netlist () =
  let b = Builder.create "flawed" in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let _unused = Builder.input b "unused" in
  let w1 = Builder.signal b "w1" in
  let w2 = Builder.signal b "w2" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"f1" ~inputs:[| a; w2 |] ~output:w1 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"f2" ~inputs:[| w1 |] ~output:w2 in
  let w3 = Builder.signal b "w3" in
  let w4 = Builder.signal b "w4" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"f3" ~inputs:[| w4 |] ~output:w3 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"f4" ~inputs:[| w3 |] ~output:w4 in
  let ghost = Builder.signal b "ghost" in
  let q = Builder.signal b "q" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g1" ~inputs:[| w1; ghost |] ~output:q in
  Builder.mark_output b q;
  let d = Builder.signal b "d" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[| bb |] ~output:d in
  let one = Builder.const b Value.L1 in
  let r = Builder.signal b "r" in
  let _ = Builder.add_gate b (Gate_kind.Nor 2) ~name:"g3" ~inputs:[| one; bb |] ~output:r in
  Builder.mark_output b r;
  Builder.finalize b

let test_netlist_rules_fire () =
  let c = flawed_netlist () in
  let findings = Netlist_rules.run cfg c in
  List.iter
    (fun id -> checkb (id ^ " fires") true (fired id findings))
    [ "NL001"; "NL002"; "NL003"; "NL004"; "NL006"; "NL007" ];
  (* both SCCs are reported, not just a single witness cycle *)
  checki "two feedback SCCs" 2
    (List.length
       (List.filter (fun (f : Finding.t) -> f.Finding.rule = "NL003") findings));
  (* the PI-fed loop is reachable; the self-fed one is not *)
  let unreachable =
    List.filter_map
      (fun (f : Finding.t) ->
        if f.Finding.rule = "NL006" then
          match f.Finding.location with Finding.Gate g -> Some g | _ -> None
        else None)
      findings
  in
  checkb "f3 unreachable" true (List.mem "f3" unreachable);
  checkb "f4 unreachable" true (List.mem "f4" unreachable);
  checkb "f1 reachable" false (List.mem "f1" unreachable)

let test_netlist_rules_clean () =
  let c = Lazy.force Halotis_netlist.Iscas.c17 in
  checki "c17 is clean" 0 (List.length (Netlist_rules.run cfg c))

let test_fanout_threshold () =
  let b = Builder.create "fan" in
  let a = Builder.input b "a" in
  for i = 0 to 5 do
    let y = Builder.signal b (Printf.sprintf "y%d" i) in
    let _ = Builder.add_gate b Gate_kind.Inv ~name:(Printf.sprintf "g%d" i) ~inputs:[| a |] ~output:y in
    Builder.mark_output b y
  done;
  let c = Builder.finalize b in
  checkb "quiet at default" false (fired "NL005" (Netlist_rules.run cfg c));
  let tight = { cfg with Rule.fanout_threshold = 4 } in
  checkb "fires when tightened" true (fired "NL005" (Netlist_rules.run tight c))

let test_disable_drops_findings () =
  let c = flawed_netlist () in
  let config = { cfg with Rule.overrides = [ ("NL003", `Off); ("NL006", `Off) ] } in
  let findings = Netlist_rules.run config c in
  checkb "NL003 gone" false (fired "NL003" findings);
  checkb "NL006 gone" false (fired "NL006" findings);
  checkb "others stay" true (fired "NL001" findings)

(* --- tech rules --- *)

let poisoned_tech () =
  let base = Tech.gate_tech DL.tech Gate_kind.Inv in
  let bad_edge =
    {
      base.Tech.rise with
      Tech.s0 = -500.;
      (* tau_out < 0 at light loads: TK001 *)
      ddm_a = -2000.;
      (* tau <= 0: TK002 *)
      ddm_c = 4.;
      (* > VDD/2 = 2.5: TK003 *)
      d0 = -400.;
      (* tp0 <= 0: TK005 *)
    }
  in
  let poisoned = { base with Tech.rise = bad_edge; default_vt = 7. (* TK004 *) } in
  (* TK006 needs both edge delays positive, just wildly asymmetric. *)
  let asym =
    { base with Tech.rise = { base.Tech.rise with Tech.d0 = 10. *. base.Tech.rise.Tech.d0 } }
  in
  let lookup = function Gate_kind.Inv -> poisoned | _ -> asym in
  Tech.create ~name:"poisoned" ~vdd:5. ~lookup ()

(* One gate of each given kind, every input a primary input. *)
let kinds_circuit kinds =
  let b = Builder.create "kinds" in
  List.iteri
    (fun i kind ->
      let inputs =
        Array.init (Gate_kind.arity kind) (fun p -> Builder.input b (Printf.sprintf "i%d_%d" i p))
      in
      let y = Builder.signal b (Printf.sprintf "y%d" i) in
      ignore (Builder.add_gate b kind ~inputs ~output:y);
      Builder.mark_output b y)
    kinds;
  Builder.finalize b

let test_tech_rules_fire () =
  let tech = poisoned_tech () in
  let findings = Tech_rules.run cfg tech (kinds_circuit [ Gate_kind.Inv; Gate_kind.Buf ]) in
  List.iter
    (fun id -> checkb (id ^ " fires") true (fired id findings))
    [ "TK001"; "TK002"; "TK003"; "TK004"; "TK005"; "TK006" ]

let test_tech_rules_clean () =
  let findings = Tech_rules.run cfg DL.tech (kinds_circuit Gate_kind.all_basic) in
  checki "built-in library is clean" 0 (List.length findings)

let test_tech_rules_pin_override () =
  let b = Builder.create "vt" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ =
    Builder.add_gate b Gate_kind.Inv ~name:"g" ~input_vt:[| Some 6.0 |] ~inputs:[| a |]
      ~output:y
  in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let findings = Tech_rules.run cfg DL.tech c in
  checkb "TK004 on the override" true (fired "TK004" findings);
  match
    List.find_opt (fun (f : Finding.t) -> f.Finding.rule = "TK004") findings
  with
  | Some { Finding.location = Finding.Pin ("g", 0); _ } -> ()
  | Some f -> Alcotest.failf "wrong location: %a" Finding.pp f
  | None -> Alcotest.fail "missing TK004"

(* --- liberty rules --- *)

let flawed_lib_text =
  {|library (flawed) {
  cell (inv) {
    pin (i0) { direction : input; capacitance : 6; }
    pin (y) {
      direction : output;
      timing () {
        related_pin : "i0";
        cell_rise (grid) {
          index_1 ("20, 60, 150");
          index_2 ("4, 10, 25");
          values ("40, 250, 30", "55, 20, 300", "70, 400, 35");
        }
        rise_transition (grid) {
          index_1 ("20, 60, 150");
          index_2 ("4, 10, 25");
          values ("30, 45, 80", "30, 45, 80", "30, 45, 80");
        }
        cell_fall (grid) {
          index_1 ("20, 60, 150");
          index_2 ("4, 10, 25");
          values ("35, 45, 70", "45, 55, 80", "60, 70, 95");
        }
        fall_transition (grid) {
          index_1 ("20, 60, 150");
          index_2 ("4, 10, 25");
          values ("28, 40, 75", "28, 40, 75", "28, 40, 75");
        }
      }
    }
  }
  cell (nand2) {
    pin (i0) { direction : input; capacitance : 5; }
    pin (y) { direction : output; }
  }
}
|}

let test_liberty_rules_fire () =
  match Liberty.parse_string flawed_lib_text with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok lib ->
      let findings = Liberty_rules.run cfg ~base:DL.tech lib in
      List.iter
        (fun id -> checkb (id ^ " fires") true (fired id findings))
        [ "LB001"; "LB002"; "LB003" ]

let test_liberty_rules_clean () =
  (* A library characterised from the linear model fits it exactly. *)
  let text =
    Halotis_liberty.Writer.of_tech DL.tech ~kinds:[ Gate_kind.Inv; Gate_kind.Nand 2 ]
  in
  match Liberty.parse_string text with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok lib ->
      checki "self-characterised library is clean" 0
        (List.length (Liberty_rules.run cfg ~base:DL.tech lib))

(* --- stim rules --- *)

let test_stim_rules_fire () =
  let c = Lazy.force Halotis_netlist.Iscas.c17 in
  let text =
    "slope 100\n\
     input G1 0 1@1000 0@1050\n\
     input G2 0 1@5000 0@3000\n\
     input G22 0 1@2000\n\
     input nope 0\n"
  in
  match Stimfile.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  | Ok stim ->
      let findings = Stim_rules.run cfg stim c in
      List.iter
        (fun id -> checkb (id ^ " fires") true (fired id findings))
        [ "ST001"; "ST002"; "ST003" ];
      checki "two binding faults" 2
        (List.length
           (List.filter (fun (f : Finding.t) -> f.Finding.rule = "ST001") findings))

let test_stim_rules_clean () =
  let c = Lazy.force Halotis_netlist.Iscas.c17 in
  match Stimfile.parse_string "slope 100\ninput G1 0 1@1000 0@3000\n" with
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  | Ok stim -> checki "clean stimulus" 0 (List.length (Stim_rules.run cfg stim c))

(* --- engine-level run / exit codes --- *)

let test_exit_codes () =
  let finding rule severity =
    { Finding.rule; severity; domain = Finding.Netlist; location = Finding.Circuit; message = "m" }
  in
  checki "clean" 0 (Lint.exit_code ~strict:false []);
  checki "clean strict" 0 (Lint.exit_code ~strict:true []);
  let warn = [ finding "NL002" Finding.Warning ] in
  checki "warnings lax" 0 (Lint.exit_code ~strict:false warn);
  checki "warnings strict" 1 (Lint.exit_code ~strict:true warn);
  let err = finding "NL001" Finding.Error :: warn in
  checki "errors" 2 (Lint.exit_code ~strict:false err);
  checki "errors strict" 2 (Lint.exit_code ~strict:true err);
  checks "summary counts" "1 error, 1 warning" (Lint.summary err);
  checks "summary clean" "clean" (Lint.summary [])

let test_run_sorts_worst_first () =
  let c = flawed_netlist () in
  let findings = Lint.run c in
  let rank = function Finding.Error -> 2 | Finding.Warning -> 1 | Finding.Info -> 0 in
  let ranks = List.map (fun (f : Finding.t) -> rank f.Finding.severity) findings in
  checkb "sorted worst first" true (List.sort (fun a b -> compare b a) ranks = ranks)

let test_preflight_filters_infos () =
  let c = flawed_netlist () in
  let findings = Lint.preflight ~tech:DL.tech c in
  checkb "has findings" true (findings <> []);
  checkb "no infos" true
    (List.for_all (fun (f : Finding.t) -> f.Finding.severity <> Finding.Info) findings)

(* --- survival-backed rules: NL020 and TK007 --- *)

let one_inverter () =
  let b = Builder.create "one" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g" ~inputs:[| a |] ~output:y in
  Builder.mark_output b y;
  Builder.finalize b

(* ddm_c near zero stretches the eq. 3 dead window to tau_in/2, past
   the stage's own (deliberately small) delay: TK007's amplification
   criterion. *)
let amplifying_tech () =
  let base = Tech.gate_tech DL.tech Gate_kind.Inv in
  let hot (p : Tech.edge_params) =
    { p with Tech.d0 = 15.; d_load = 0.5; d_slope = 0.05; ddm_c = 0.1 }
  in
  let cell = { base with Tech.rise = hot base.Tech.rise; fall = hot base.Tech.fall } in
  Tech.create ~name:"amplifying" ~vdd:5. ~lookup:(fun _ -> cell) ()

let test_tk007_fires () =
  let findings = Survival_rules.run cfg (amplifying_tech ()) (one_inverter ()) in
  checkb "TK007 fires" true (fired "TK007" findings);
  match
    List.find_opt (fun (f : Finding.t) -> f.Finding.rule = "TK007") findings
  with
  | Some { Finding.location = Finding.Kind "inv"; _ } -> ()
  | Some f -> Alcotest.failf "wrong location: %a" Finding.pp f
  | None -> Alcotest.fail "missing TK007"

let test_survival_rules_default_clean () =
  checki "built-in library admits no amplification" 0
    (List.length (Survival_rules.run cfg DL.tech (one_inverter ())))

(* The only primary output is a tie cell: no candidate site's pulse can
   reach an observable point, so the fault-site list is degenerate. *)
let test_nl020_degenerate () =
  let b = Builder.create "degen" in
  let a = Builder.input b "a" in
  let zero = Builder.const b Value.L0 in
  let x = Builder.signal b "x" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g" ~inputs:[| a |] ~output:x in
  Builder.mark_output b zero;
  let c = Builder.finalize b in
  let findings = Survival_rules.run cfg DL.tech c in
  checkb "NL020 fires" true (fired "NL020" findings);
  (match
     List.find_opt (fun (f : Finding.t) -> f.Finding.rule = "NL020") findings
   with
  | Some { Finding.location = Finding.Circuit; _ } -> ()
  | Some f -> Alcotest.failf "wrong location: %a" Finding.pp f
  | None -> Alcotest.fail "missing NL020");
  (* an ordinary circuit is not degenerate *)
  checkb "inverter not degenerate" false
    (fired "NL020" (Survival_rules.run cfg DL.tech (one_inverter ())))

(* A cyclic circuit must not crash the lint pass: NL003 owns cycles and
   the survival rules stay silent rather than raising. *)
let test_nl020_cyclic_silent () =
  let b = Builder.create "ring" in
  let x = Builder.signal b "x" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g1" ~inputs:[| x |] ~output:y in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[| y |] ~output:x in
  Builder.mark_output b x;
  let c = Builder.finalize b in
  checkb "no NL020 on a cycle" false (fired "NL020" (Survival_rules.run cfg DL.tech c));
  let full = Lint.run ~tech:DL.tech c in
  checkb "full lint still reports the cycle" true (fired "NL003" full)

let tests =
  [
    ( "lint.json",
      [
        Alcotest.test_case "value round-trip" `Quick test_json_roundtrip;
        Alcotest.test_case "parser corners" `Quick test_json_parse_misc;
        Alcotest.test_case "finding round-trip" `Quick test_finding_json_roundtrip;
        Alcotest.test_case "report round-trip" `Quick test_report_json_roundtrip;
      ] );
    ( "lint.registry",
      [
        Alcotest.test_case "registry sane" `Quick test_registry_sane;
        Alcotest.test_case "overrides" `Quick test_config_overrides;
      ] );
    ( "lint.netlist",
      [
        Alcotest.test_case "flawed circuit fires" `Quick test_netlist_rules_fire;
        Alcotest.test_case "c17 clean" `Quick test_netlist_rules_clean;
        Alcotest.test_case "fanout threshold" `Quick test_fanout_threshold;
        Alcotest.test_case "disable drops" `Quick test_disable_drops_findings;
      ] );
    ( "lint.tech",
      [
        Alcotest.test_case "poisoned tech fires" `Quick test_tech_rules_fire;
        Alcotest.test_case "built-in clean" `Quick test_tech_rules_clean;
        Alcotest.test_case "pin override located" `Quick test_tech_rules_pin_override;
      ] );
    ( "lint.survival",
      [
        Alcotest.test_case "TK007 amplifying tech" `Quick test_tk007_fires;
        Alcotest.test_case "built-in clean" `Quick test_survival_rules_default_clean;
        Alcotest.test_case "NL020 degenerate circuit" `Quick test_nl020_degenerate;
        Alcotest.test_case "cyclic stays silent" `Quick test_nl020_cyclic_silent;
      ] );
    ( "lint.liberty",
      [
        Alcotest.test_case "flawed library fires" `Quick test_liberty_rules_fire;
        Alcotest.test_case "self-characterised clean" `Quick test_liberty_rules_clean;
      ] );
    ( "lint.stim",
      [
        Alcotest.test_case "flawed stimulus fires" `Quick test_stim_rules_fire;
        Alcotest.test_case "clean stimulus" `Quick test_stim_rules_clean;
      ] );
    ( "lint.engine",
      [
        Alcotest.test_case "exit codes" `Quick test_exit_codes;
        Alcotest.test_case "worst first" `Quick test_run_sorts_worst_first;
        Alcotest.test_case "preflight filters infos" `Quick test_preflight_filters_infos;
      ] );
  ]
