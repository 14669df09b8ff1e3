(* Tests for Halotis_liberty: tables, parser, fitting, round-trip. *)

module Table2d = Halotis_liberty.Table2d
module Ast = Halotis_liberty.Ast
module Liberty = Halotis_liberty.Liberty
module Fit = Halotis_liberty.Fit
module Writer = Halotis_liberty.Writer
module Tech = Halotis_tech.Tech
module DL = Halotis_tech.Default_lib
module Gate_kind = Halotis_logic.Gate_kind
module Linfit = Halotis_util.Linfit

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-6)) msg

(* --- multiple regression (lives in util, exercised here) --- *)

let test_multiple_regression_exact () =
  (* y = 3 + 2*x1 - 0.5*x2 *)
  let rows =
    List.concat_map
      (fun x1 -> List.map (fun x2 -> ([| x1; x2 |], 3. +. (2. *. x1) -. (0.5 *. x2))) [ 0.; 1.; 5. ])
      [ 0.; 2.; 7. ]
  in
  match Linfit.multiple_regression rows with
  | Some [| c0; c1; c2 |] ->
      checkf "c0" 3. c0;
      checkf "c1" 2. c1;
      checkf "c2" (-0.5) c2
  | Some _ | None -> Alcotest.fail "expected 3 coefficients"

let test_multiple_regression_degenerate () =
  checkb "empty" true (Linfit.multiple_regression [] = None);
  checkb "too few" true (Linfit.multiple_regression [ ([| 1.; 2. |], 3.) ] = None);
  (* collinear regressors -> singular *)
  let rows = List.init 6 (fun i -> ([| float_of_int i; 2. *. float_of_int i |], 1.)) in
  checkb "singular" true (Linfit.multiple_regression rows = None)

(* --- Table2d --- *)

let grid () =
  Table2d.make ~index1:[| 0.; 10. |] ~index2:[| 0.; 100. |]
    ~values:[| [| 0.; 100. |]; [| 10.; 110. |] |]

let test_table_corners () =
  let t = grid () in
  checkf "00" 0. (Table2d.lookup t 0. 0.);
  checkf "01" 100. (Table2d.lookup t 0. 100.);
  checkf "10" 10. (Table2d.lookup t 10. 0.);
  checkf "11" 110. (Table2d.lookup t 10. 100.)

let test_table_interpolation () =
  let t = grid () in
  checkf "center" 55. (Table2d.lookup t 5. 50.);
  checkf "edge mid" 50. (Table2d.lookup t 0. 50.)

let test_table_extrapolation () =
  let t = grid () in
  checkf "beyond x1" 20. (Table2d.lookup t 20. 0.);
  checkf "below x2" (-10.) (Table2d.lookup t 0. (-10.))

let test_table_validation () =
  let bad f = try f () |> ignore; false with Invalid_argument _ -> true in
  checkb "empty index" true
    (bad (fun () -> Table2d.make ~index1:[||] ~index2:[| 1. |] ~values:[||]));
  checkb "non increasing" true
    (bad (fun () ->
         Table2d.make ~index1:[| 2.; 1. |] ~index2:[| 1. |] ~values:[| [| 0. |]; [| 0. |] |]));
  checkb "shape mismatch" true
    (bad (fun () -> Table2d.make ~index1:[| 1.; 2. |] ~index2:[| 1. |] ~values:[| [| 0. |] |]))

let test_table_single_point () =
  let t = Table2d.make ~index1:[| 5. |] ~index2:[| 7. |] ~values:[| [| 42. |] |] in
  checkf "flat everywhere" 42. (Table2d.lookup t 0. 100.);
  checki "samples" 1 (List.length (Table2d.sample_points t))

(* --- Ast parser --- *)

let sample_lib =
  {|/* sample */
library (demo) {
  time_unit : "1ps";
  cell (inv) {
    pin (a) { direction : input; capacitance : 6.0; }
    pin (y) {
      direction : output;
      timing () {
        related_pin : "a";
        cell_rise (grid) {
          index_1 ("10, 100");
          index_2 ("5, 50");
          values ("30, 60", "45, 75");
        }
        rise_transition (grid) {
          index_1 ("10, 100");
          index_2 ("5, 50");
          values ("40, 80", "40, 80");
        }
        cell_fall (grid) {
          index_1 ("10, 100");
          index_2 ("5, 50");
          values ("25, 55", "40, 70");
        }
        fall_transition (grid) {
          index_1 ("10, 100");
          index_2 ("5, 50");
          values ("35, 70", "35, 70");
        }
      }
    }
  }
}|}

let test_ast_parse () =
  match Ast.parse_string sample_lib with
  | Error e -> Alcotest.failf "parse: %a" Halotis_util.Diag.pp e
  | Ok g ->
      Alcotest.(check string) "library" "library" g.Ast.g_name;
      Alcotest.(check (list string)) "args" [ "demo" ] g.Ast.g_args;
      checkb "time_unit" true (Ast.find_attr g "time_unit" = Some "1ps");
      checki "one cell" 1 (List.length (Ast.find_groups g "cell"))

let test_ast_comments_and_errors () =
  checkb "line comment" true
    (match Ast.parse_string "// hi\nlibrary (x) { }" with Ok _ -> true | Error _ -> false);
  let expect_error text =
    match Ast.parse_string text with Ok _ -> false | Error _ -> true
  in
  checkb "unterminated" true (expect_error "library (x) {");
  checkb "garbage" true (expect_error "{}");
  checkb "trailing" true (expect_error "library (x) { } extra");
  checkb "bad attr" true (expect_error "library (x) { a : ; }");
  checkb "unterminated string" true (expect_error "library (x) { a : \"oops; }")

(* --- Liberty interpretation --- *)

let parsed_lib () =
  match Liberty.parse_string sample_lib with
  | Ok l -> l
  | Error e -> Alcotest.failf "interp: %a" Halotis_util.Diag.pp e

let test_liberty_cells () =
  let l = parsed_lib () in
  Alcotest.(check string) "name" "demo" l.Liberty.lib_name;
  checki "one cell" 1 (List.length l.Liberty.cells);
  match Liberty.find_cell l "inv" with
  | None -> Alcotest.fail "inv missing"
  | Some c ->
      Alcotest.(check string) "output pin" "y" c.Liberty.output_pin;
      checkb "input cap" true (List.assoc "a" c.Liberty.input_caps = 6.0);
      checki "one arc" 1 (List.length c.Liberty.arcs)

let test_liberty_lookup () =
  let l = parsed_lib () in
  match Liberty.find_cell l "inv" with
  | None -> Alcotest.fail "inv missing"
  | Some c ->
      (match Liberty.delay c ~rising:true ~pin:"a" ~slope:10. ~load:5. with
      | Some d -> checkf "corner" 30. d
      | None -> Alcotest.fail "expected delay");
      (match Liberty.delay c ~rising:true ~pin:"a" ~slope:55. ~load:27.5 with
      | Some d -> checkf "center" 52.5 d
      | None -> Alcotest.fail "expected delay");
      checkb "unknown pin" true (Liberty.delay c ~rising:true ~pin:"zz" ~slope:1. ~load:1. = None)

(* --- round trip: tech -> liberty -> fitted tech --- *)

let test_roundtrip_exact () =
  let kinds = [ Gate_kind.Inv; Gate_kind.Nand 2; Gate_kind.Xor 2 ] in
  let text = Writer.of_tech DL.tech ~kinds in
  match Liberty.parse_string text with
  | Error e -> Alcotest.failf "reparse: %a" Halotis_util.Diag.pp e
  | Ok lib ->
      let fitted, qualities =
        Fit.to_tech ~base:DL.tech ~kind_of_cell:Fit.default_kind_of_cell lib
      in
      checki "all kinds fitted" (List.length kinds) (List.length qualities);
      List.iter
        (fun (_, q) ->
          checkb "delay fit exact" true (q.Fit.delay_rmse < 1e-6);
          checkb "slope fit exact" true (q.Fit.slope_rmse < 1e-6))
        qualities;
      (* fitted coefficients reproduce the base delays everywhere *)
      List.iter
        (fun kind ->
          let g0 = Tech.gate_tech DL.tech kind and g1 = Tech.gate_tech fitted kind in
          List.iter
            (fun rising ->
              List.iter
                (fun (slope, load) ->
                  let d t =
                    Tech.base_delay (Tech.edge t ~rising) ~pin_factor:1.0 ~cl:load
                      ~tau_in:slope
                  in
                  checkb "same delay" true (Float.abs (d g0 -. d g1) < 1e-6))
                [ (30., 8.); (120., 40.); (250., 15.) ])
            [ true; false ];
          checkb "cap carried" true
            (Float.abs (g0.Tech.input_cap -. g1.Tech.input_cap) < 1e-9))
        kinds

let test_fit_preserves_ddm () =
  let kinds = [ Gate_kind.Inv ] in
  let text = Writer.of_tech DL.tech ~kinds in
  match Liberty.parse_string text with
  | Error e -> Alcotest.failf "reparse: %a" Halotis_util.Diag.pp e
  | Ok lib ->
      let fitted, _ = Fit.to_tech ~base:DL.tech ~kind_of_cell:Fit.default_kind_of_cell lib in
      let p0 = Tech.edge (Tech.gate_tech DL.tech Gate_kind.Inv) ~rising:true in
      let p1 = Tech.edge (Tech.gate_tech fitted Gate_kind.Inv) ~rising:true in
      checkf "ddm_a kept" p0.Tech.ddm_a p1.Tech.ddm_a;
      checkf "ddm_c kept" p0.Tech.ddm_c p1.Tech.ddm_c

let test_fit_fallback_for_missing_cells () =
  let text = Writer.of_tech DL.tech ~kinds:[ Gate_kind.Inv ] in
  match Liberty.parse_string text with
  | Error e -> Alcotest.failf "reparse: %a" Halotis_util.Diag.pp e
  | Ok lib ->
      let fitted, _ = Fit.to_tech ~base:DL.tech ~kind_of_cell:Fit.default_kind_of_cell lib in
      (* NOR2 was not exported: falls back to the base *)
      let g0 = Tech.gate_tech DL.tech (Gate_kind.Nor 2) in
      let g1 = Tech.gate_tech fitted (Gate_kind.Nor 2) in
      checkf "fallback d0" g0.Tech.rise.Tech.d0 g1.Tech.rise.Tech.d0

let tests =
  [
    ( "liberty.regression",
      [
        Alcotest.test_case "exact" `Quick test_multiple_regression_exact;
        Alcotest.test_case "degenerate" `Quick test_multiple_regression_degenerate;
      ] );
    ( "liberty.table2d",
      [
        Alcotest.test_case "corners" `Quick test_table_corners;
        Alcotest.test_case "interpolation" `Quick test_table_interpolation;
        Alcotest.test_case "extrapolation" `Quick test_table_extrapolation;
        Alcotest.test_case "validation" `Quick test_table_validation;
        Alcotest.test_case "single point" `Quick test_table_single_point;
      ] );
    ( "liberty.parser",
      [
        Alcotest.test_case "parse" `Quick test_ast_parse;
        Alcotest.test_case "comments/errors" `Quick test_ast_comments_and_errors;
        Alcotest.test_case "cells" `Quick test_liberty_cells;
        Alcotest.test_case "lookup" `Quick test_liberty_lookup;
      ] );
    ( "liberty.fit",
      [
        Alcotest.test_case "roundtrip exact" `Quick test_roundtrip_exact;
        Alcotest.test_case "preserves ddm" `Quick test_fit_preserves_ddm;
        Alcotest.test_case "fallback" `Quick test_fit_fallback_for_missing_cells;
      ] );
  ]

let prop_liberty_never_raises =
  QCheck.Test.make ~name:"liberty parser total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun text ->
      match Liberty.parse_string text with Ok _ | Error _ -> true)

let prop_stimfile_never_raises =
  QCheck.Test.make ~name:"stimfile parser total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun text ->
      match Halotis_stim.Stimfile.parse_string text with Ok _ | Error _ -> true)

let prop_vcd_never_raises =
  QCheck.Test.make ~name:"vcd reader total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun text ->
      let path = Filename.temp_file "halotis" ".vcd" in
      Out_channel.with_open_text path (fun oc -> output_string oc text);
      let parsed = Halotis_wave.Vcd_reader.parse_file path in
      Sys.remove path;
      match parsed with Ok _ | Error _ -> true)

let tests =
  tests
  @ [
      ( "parsers.fuzz",
        [
          QCheck_alcotest.to_alcotest prop_liberty_never_raises;
          QCheck_alcotest.to_alcotest prop_stimfile_never_raises;
          QCheck_alcotest.to_alcotest prop_vcd_never_raises;
        ] );
    ]
