(* Tests for Halotis_logic: 4-valued algebra and gate primitives. *)

module Value = Halotis_logic.Value
module Gate_kind = Halotis_logic.Gate_kind

let checkb = Alcotest.(check bool)
let all_values = [ Value.L0; Value.L1; Value.X; Value.Z ]

let value_testable =
  Alcotest.testable (fun fmt v -> Format.pp_print_char fmt (Value.to_char v)) Value.equal

(* Each value prints as its own character (tie cells are named after it). *)
let test_value_char_roundtrip () =
  Alcotest.(check (list char)) "chars" [ '0'; '1'; 'x'; 'z' ] (List.map Value.to_char all_values)

let test_value_bool_bridge () =
  checkb "L0" true (Value.to_bool Value.L0 = Some false);
  checkb "L1" true (Value.to_bool Value.L1 = Some true);
  checkb "X" true (Value.to_bool Value.X = None);
  checkb "Z" true (Value.to_bool Value.Z = None)

let test_value_not () =
  Alcotest.check value_testable "not 0" Value.L1 (Value.lnot Value.L0);
  Alcotest.check value_testable "not 1" Value.L0 (Value.lnot Value.L1);
  Alcotest.check value_testable "not x" Value.X (Value.lnot Value.X);
  Alcotest.check value_testable "not z" Value.X (Value.lnot Value.Z)

let test_value_dominance () =
  (* 0 dominates and, 1 dominates or, even against unknowns *)
  List.iter
    (fun v ->
      Alcotest.check value_testable "0 and v" Value.L0 (Value.land_ Value.L0 v);
      Alcotest.check value_testable "v and 0" Value.L0 (Value.land_ v Value.L0);
      Alcotest.check value_testable "1 or v" Value.L1 (Value.lor_ Value.L1 v);
      Alcotest.check value_testable "v or 1" Value.L1 (Value.lor_ v Value.L1))
    all_values

let test_value_xor_unknown () =
  Alcotest.check value_testable "x ^ 1" Value.X (Value.lxor_ Value.X Value.L1);
  Alcotest.check value_testable "1 ^ 0" Value.L1 (Value.lxor_ Value.L1 Value.L0);
  Alcotest.check value_testable "1 ^ 1" Value.L0 (Value.lxor_ Value.L1 Value.L1)

let prop_land_commutative =
  QCheck.Test.make ~name:"land commutative" ~count:100
    QCheck.(pair (int_range 0 3) (int_range 0 3))
    (fun (i, j) ->
      let v k = List.nth all_values k in
      Value.equal (Value.land_ (v i) (v j)) (Value.land_ (v j) (v i)))

let prop_lor_associative =
  QCheck.Test.make ~name:"lor associative" ~count:100
    QCheck.(triple (int_range 0 3) (int_range 0 3) (int_range 0 3))
    (fun (i, j, k) ->
      let v n = List.nth all_values n in
      Value.equal
        (Value.lor_ (v i) (Value.lor_ (v j) (v k)))
        (Value.lor_ (Value.lor_ (v i) (v j)) (v k)))

(* --- Gate kinds --- *)

let test_arity () =
  Alcotest.(check int) "inv" 1 (Gate_kind.arity Gate_kind.Inv);
  Alcotest.(check int) "nand3" 3 (Gate_kind.arity (Gate_kind.Nand 3));
  Alcotest.(check int) "mux2" 3 (Gate_kind.arity Gate_kind.Mux2);
  Alcotest.(check int) "aoi21" 3 (Gate_kind.arity Gate_kind.Aoi21)

let truth_table_2 kind expected =
  List.iteri
    (fun i expect ->
      let a = i land 2 <> 0 and b = i land 1 <> 0 in
      checkb
        (Printf.sprintf "%s(%b,%b)" (Gate_kind.name kind) a b)
        expect
        (Gate_kind.eval_bool kind [| a; b |]))
    expected

let test_truth_tables () =
  (* order: (0,0) (0,1) (1,0) (1,1) *)
  truth_table_2 (Gate_kind.And 2) [ false; false; false; true ];
  truth_table_2 (Gate_kind.Nand 2) [ true; true; true; false ];
  truth_table_2 (Gate_kind.Or 2) [ false; true; true; true ];
  truth_table_2 (Gate_kind.Nor 2) [ true; false; false; false ];
  truth_table_2 (Gate_kind.Xor 2) [ false; true; true; false ];
  truth_table_2 (Gate_kind.Xnor 2) [ true; false; false; true ];
  checkb "inv 0" true (Gate_kind.eval_bool Gate_kind.Inv [| false |]);
  checkb "inv 1" false (Gate_kind.eval_bool Gate_kind.Inv [| true |]);
  checkb "buf" true (Gate_kind.eval_bool Gate_kind.Buf [| true |])

let test_complex_cells () =
  let cases3 kind f =
    for i = 0 to 7 do
      let a = i land 4 <> 0 and b = i land 2 <> 0 and c = i land 1 <> 0 in
      checkb
        (Printf.sprintf "%s %d" (Gate_kind.name kind) i)
        (f a b c)
        (Gate_kind.eval_bool kind [| a; b; c |])
    done
  in
  cases3 Gate_kind.Aoi21 (fun a b c -> not ((a && b) || c));
  cases3 Gate_kind.Oai21 (fun a b c -> not ((a || b) && c));
  cases3 Gate_kind.Mux2 (fun a b s -> if s then b else a)

let test_wide_gates () =
  checkb "and4 all" true (Gate_kind.eval_bool (Gate_kind.And 4) [| true; true; true; true |]);
  checkb "and4 one low" false
    (Gate_kind.eval_bool (Gate_kind.And 4) [| true; true; false; true |]);
  checkb "xor3 parity" true
    (Gate_kind.eval_bool (Gate_kind.Xor 3) [| true; true; true |]);
  checkb "nor3" false (Gate_kind.eval_bool (Gate_kind.Nor 3) [| false; true; false |])

let test_eval_arity_mismatch () =
  Alcotest.check_raises "wrong arity"
    (Invalid_argument "Gate_kind.eval: expected 2 inputs, got 1") (fun () ->
      ignore (Gate_kind.eval (Gate_kind.And 2) [| Value.L1 |]))

(* Property: the 4-valued eval agrees with eval_bool on resolved inputs. *)
let prop_eval_consistent =
  let kind_gen = QCheck.Gen.oneofl Gate_kind.all_basic in
  QCheck.Test.make ~name:"eval = eval_bool on resolved inputs" ~count:500
    (QCheck.make
       QCheck.Gen.(pair kind_gen (list_size (return 4) bool)))
    (fun (kind, bits) ->
      let n = Gate_kind.arity kind in
      let bools = Array.of_list (List.filteri (fun i _ -> i < n) (bits @ [ false; false; false; false ])) in
      let bools = Array.sub bools 0 n in
      let of_bool b = if b then Value.L1 else Value.L0 in
      let values = Array.map of_bool bools in
      Value.equal (Gate_kind.eval kind values) (of_bool (Gate_kind.eval_bool kind bools)))

let prop_name_roundtrip =
  let kind_gen = QCheck.Gen.oneofl Gate_kind.all_basic in
  QCheck.Test.make ~name:"of_name (name k) = k" ~count:100 (QCheck.make kind_gen) (fun kind ->
      match Gate_kind.of_name (Gate_kind.name kind) with
      | Some k -> k = kind
      | None -> false)

let test_of_name_errors () =
  checkb "unknown" true (Gate_kind.of_name "frob" = None);
  checkb "bad arity" true (Gate_kind.of_name "nand0" = None);
  checkb "no arity" true (Gate_kind.of_name "nand" = None);
  checkb "alias" true (Gate_kind.of_name "not" = Some Gate_kind.Inv)

let tests =
  [
    ( "logic.value",
      [
        Alcotest.test_case "char roundtrip" `Quick test_value_char_roundtrip;
        Alcotest.test_case "bool bridge" `Quick test_value_bool_bridge;
        Alcotest.test_case "negation" `Quick test_value_not;
        Alcotest.test_case "dominance" `Quick test_value_dominance;
        Alcotest.test_case "xor unknown" `Quick test_value_xor_unknown;
        QCheck_alcotest.to_alcotest prop_land_commutative;
        QCheck_alcotest.to_alcotest prop_lor_associative;
      ] );
    ( "logic.gate_kind",
      [
        Alcotest.test_case "arity" `Quick test_arity;
        Alcotest.test_case "truth tables" `Quick test_truth_tables;
        Alcotest.test_case "complex cells" `Quick test_complex_cells;
        Alcotest.test_case "wide gates" `Quick test_wide_gates;
        Alcotest.test_case "arity mismatch" `Quick test_eval_arity_mismatch;
        Alcotest.test_case "of_name errors" `Quick test_of_name_errors;
        QCheck_alcotest.to_alcotest prop_eval_consistent;
        QCheck_alcotest.to_alcotest prop_name_roundtrip;
      ] );
  ]
