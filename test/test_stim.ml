(* Tests for Halotis_stim. *)

module V = Halotis_stim.Vectors
module Stimfile = Halotis_stim.Stimfile
module G = Halotis_netlist.Generators
module N = Halotis_netlist.Netlist
module Drive = Halotis_engine.Drive
module T = Halotis_wave.Transition

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let test_paper_sequences () =
  checki "A length" 5 (List.length V.paper_sequence_a);
  checki "B length" 5 (List.length V.paper_sequence_b);
  let ops = List.map (Format.asprintf "%a" V.pp_mult_op) V.paper_sequence_a in
  Alcotest.(check (list string)) "A ops" [ "0x0"; "7x7"; "5xA"; "Ex6"; "FxF" ] ops;
  let opsb = List.map (Format.asprintf "%a" V.pp_mult_op) V.paper_sequence_b in
  Alcotest.(check (list string)) "B ops" [ "0x0"; "FxF"; "0x0"; "FxF"; "0x0" ] opsb

let test_expected_product () =
  checki "7x7" 49 (V.expected_product { V.op_a = 7; op_b = 7 });
  checki "FxF" 225 (V.expected_product { V.op_a = 15; op_b = 15 });
  checki "5xA" 50 (V.expected_product { V.op_a = 5; op_b = 10 })

let test_random_ops_range () =
  let ops = Fixtures.random_ops ~bits:4 ~count:50 ~seed:1 in
  checki "count" 50 (List.length ops);
  List.iter
    (fun { V.op_a; op_b } ->
      checkb "a range" true (op_a >= 0 && op_a < 16);
      checkb "b range" true (op_b >= 0 && op_b < 16))
    ops

let test_random_ops_deterministic () =
  let ops seed = Fixtures.random_ops ~bits:4 ~count:10 ~seed in
  checkb "same seed" true (ops 3 = ops 3);
  checkb "different seed" false (ops 3 = ops 4)

(* The multiplicand bus's drives for a sequence of multiplicand values. *)
let bus_drives values =
  let m = G.array_multiplier ~m:4 ~n:4 () in
  let ops = List.map (fun v -> { V.op_a = v; op_b = 0 }) values in
  V.multiplier_drives ~slope:100. ~period:1000. ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits ops
  |> List.filteri (fun i _ -> i < 4)

(* bit [i] of the first value is the initial level of bus bit [i] *)
let test_bit () =
  let initial = List.map (fun (_, d) -> d.Drive.initial) (bus_drives [ 5 ]) in
  Alcotest.(check (list bool)) "bits of 5, LSB first" [ true; false; true; false ] initial

let test_bus_drives () =
  let drives = bus_drives [ 0x0; 0xF; 0x0 ] in
  checki "one drive per bit" 4 (List.length drives);
  List.iter
    (fun (_, d) ->
      checkb "initial zero" false d.Drive.initial;
      (* each bit rises at 1000 and falls at 2000 *)
      checki "two changes" 2 (List.length d.Drive.transitions);
      match d.Drive.transitions with
      | [ t1; t2 ] ->
          checkb "rise time" true (t1.T.start = 1000.);
          checkb "fall time" true (t2.T.start = 2000.)
      | _ -> Alcotest.fail "shape")
    drives

let test_bus_drives_dedup () =
  (* value never changes: no transitions at all *)
  let drives = bus_drives [ 0x3; 0x3; 0x3 ] in
  List.iter (fun (_, d) -> checki "no changes" 0 (List.length d.Drive.transitions)) drives

let test_bus_drives_empty () =
  let drives = bus_drives [] in
  checki "constant drives" 4 (List.length drives);
  List.iter (fun (_, d) -> checkb "flat" true (d.Drive.transitions = [])) drives

let test_multiplier_drives () =
  let m = G.array_multiplier ~m:4 ~n:4 () in
  let drives =
    V.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits
      V.paper_sequence_a
  in
  checki "eight drives" 8 (List.length drives);
  (* initial op is 0x0: all initial levels false *)
  List.iter (fun (_, d) -> checkb "initial" false d.Drive.initial) drives

(* --- Stimfile --- *)

let sample_hsv = "# demo\nslope 50\ninput a 0 1@1000 0@2000\ninput b 1\n"

let test_stimfile_parse () =
  match Stimfile.parse_string sample_hsv with
  | Error e -> Alcotest.failf "parse error: %s" (Halotis_util.Diag.to_string e)
  | Ok t ->
      Alcotest.(check (float 0.)) "slope" 50. t.Stimfile.slope;
      checki "entries" 2 (List.length t.Stimfile.entries);
      let a = List.assoc "a" t.Stimfile.entries in
      checkb "a initial" false a.Drive.initial;
      checki "a transitions" 2 (List.length a.Drive.transitions);
      let b = List.assoc "b" t.Stimfile.entries in
      checkb "b constant high" true (b.Drive.initial && b.Drive.transitions = [])

let test_stimfile_roundtrip () =
  match Stimfile.parse_string sample_hsv with
  | Error e -> Alcotest.failf "parse error: %s" (Halotis_util.Diag.to_string e)
  | Ok t -> (
      let printed = Stimfile.to_string t in
      match Stimfile.parse_string printed with
      | Error e -> Alcotest.failf "reparse error: %s" (Halotis_util.Diag.to_string e)
      | Ok t2 -> Alcotest.(check string) "stable print" printed (Stimfile.to_string t2))

let test_stimfile_errors () =
  let expect_error text =
    match Stimfile.parse_string text with
    | Ok _ -> Alcotest.failf "expected failure for %S" text
    | Error _ -> ()
  in
  expect_error "slope nope\n";
  expect_error "slope -5\n";
  expect_error "input\n";
  expect_error "input a\n";
  expect_error "input a 2\n";
  expect_error "input a 0 1@\n";
  expect_error "input a 0 x@100\n";
  expect_error "input a 0 1@-5\n";
  expect_error "input a 0\ninput a 1\n";
  expect_error "bogus directive\n"

let test_stimfile_bind () =
  let c = G.inverter_chain ~n:2 () in
  (match Stimfile.parse_string "input in 0 1@500\n" with
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  | Ok t -> (
      match Stimfile.bind t c with
      | Ok [ (sid, _) ] ->
          checkb "bound to in" true (N.signal_name c sid = "in")
      | Ok l -> Alcotest.failf "expected 1 binding, got %d" (List.length l)
      | Error m -> Alcotest.fail m));
  (match Stimfile.parse_string "input zz 0\n" with
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  | Ok t -> checkb "unknown rejected" true (Result.is_error (Stimfile.bind t c)));
  match Stimfile.parse_string "input out 0\n" with
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  | Ok t -> checkb "non-input rejected" true (Result.is_error (Stimfile.bind t c))

let test_stimfile_file_io () =
  let path = Filename.temp_file "halotis" ".hsv" in
  let oc = open_out path in
  output_string oc sample_hsv;
  close_out oc;
  (match Stimfile.parse_file path with
  | Ok t -> checki "entries" 2 (List.length t.Stimfile.entries)
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e));
  Sys.remove path

let tests =
  [
    ( "stim.stimfile",
      [
        Alcotest.test_case "parse" `Quick test_stimfile_parse;
        Alcotest.test_case "roundtrip" `Quick test_stimfile_roundtrip;
        Alcotest.test_case "errors" `Quick test_stimfile_errors;
        Alcotest.test_case "bind" `Quick test_stimfile_bind;
        Alcotest.test_case "file io" `Quick test_stimfile_file_io;
      ] );
    ( "stim.vectors",
      [
        Alcotest.test_case "paper sequences" `Quick test_paper_sequences;
        Alcotest.test_case "expected product" `Quick test_expected_product;
        Alcotest.test_case "bit" `Quick test_bit;
        Alcotest.test_case "random range" `Quick test_random_ops_range;
        Alcotest.test_case "random deterministic" `Quick test_random_ops_deterministic;
        Alcotest.test_case "bus drives" `Quick test_bus_drives;
        Alcotest.test_case "bus dedup" `Quick test_bus_drives_dedup;
        Alcotest.test_case "bus empty" `Quick test_bus_drives_empty;
        Alcotest.test_case "multiplier drives" `Quick test_multiplier_drives;
      ] );
  ]

let test_walking_ones () =
  let p = Fixtures.walking_ones ~bits:3 in
  Alcotest.(check (list int)) "pattern" [ 0; 1; 0; 2; 0; 4; 0 ] p

let test_gray_code () =
  let g = Fixtures.gray_code ~bits:3 in
  checki "length" 8 (List.length g);
  (* exactly one bit flips between consecutive codes *)
  let rec check = function
    | a :: (b :: _ as rest) ->
        let diff = a lxor b in
        checkb "one bit" true (diff land (diff - 1) = 0 && diff <> 0);
        check rest
    | [ _ ] | [] -> ()
  in
  check g;
  (* all distinct *)
  checki "distinct" 8 (List.length (List.sort_uniq compare g))

let tests =
  tests
  @ [
      ( "stim.patterns",
        [
          Alcotest.test_case "walking ones" `Quick test_walking_ones;
          Alcotest.test_case "gray code" `Quick test_gray_code;
        ] );
    ]
