(* Tests for Halotis_netlist: builder, checks, HNL, generators. *)

module N = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module Check = Halotis_netlist.Check
module Hnl = Halotis_netlist.Hnl
module G = Halotis_netlist.Generators
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let simple_inverter () =
  let b = Builder.create "inv1" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g" ~inputs:[| a |] ~output:y in
  Builder.mark_output b y;
  Builder.finalize b

let test_builder_basic () =
  let c = simple_inverter () in
  checki "signals" 2 (N.signal_count c);
  checki "gates" 1 (N.gate_count c);
  checkb "pi" true (List.length (N.primary_inputs c) = 1);
  checkb "po" true (List.length (N.primary_outputs c) = 1);
  let g = N.gate c 0 in
  Alcotest.(check string) "gate name" "g" g.N.gate_name;
  checkb "driver" true ((N.signal c g.N.output).N.driver = Some 0)

let test_builder_find () =
  let c = simple_inverter () in
  checkb "find a" true (N.find_signal c "a" <> None);
  checkb "find y" true (N.find_signal c "y" <> None);
  checkb "find missing" true (N.find_signal c "zz" = None)

let test_builder_double_drive () =
  let b = Builder.create "bad" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Inv ~inputs:[| a |] ~output:y in
  checkb "raises" true
    (try
       ignore (Builder.add_gate b Gate_kind.Buf ~inputs:[| a |] ~output:y);
       false
     with Invalid_argument _ -> true)

let test_builder_drive_input () =
  let b = Builder.create "bad" in
  let a = Builder.input b "a" in
  let a2 = Builder.input b "a2" in
  checkb "raises" true
    (try
       ignore (Builder.add_gate b Gate_kind.Inv ~inputs:[| a |] ~output:a2);
       false
     with Invalid_argument _ -> true)

let test_builder_arity_mismatch () =
  let b = Builder.create "bad" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  checkb "raises" true
    (try
       ignore (Builder.add_gate b (Gate_kind.And 2) ~inputs:[| a |] ~output:y);
       false
     with Invalid_argument _ -> true)

let test_builder_duplicate_names () =
  let b = Builder.create "bad" in
  let _ = Builder.input b "a" in
  checkb "dup signal" true
    (try
       ignore (Builder.input b "a");
       false
     with Invalid_argument _ -> true)

let test_builder_const_shared () =
  let b = Builder.create "c" in
  let z1 = Builder.const b Value.L0 in
  let z2 = Builder.const b Value.L0 in
  let o1 = Builder.const b Value.L1 in
  checki "same zero" z1 z2;
  checkb "distinct" true (z1 <> o1)

let test_builder_fresh_names_unique () =
  let b = Builder.create "c" in
  let s1 = Builder.fresh_signal b in
  let s2 = Builder.fresh_signal b in
  checkb "distinct ids" true (s1 <> s2)

let test_fanout () =
  let b = Builder.create "fan" in
  let a = Builder.input b "a" in
  let y1 = Builder.signal b "y1" in
  let y2 = Builder.signal b "y2" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g1" ~inputs:[| a |] ~output:y1 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[| a |] ~output:y2 in
  let c = Builder.finalize b in
  checki "fanout" 2 (List.length (N.fanout_gates c a));
  checki "loads" 2 (Array.length (N.signal c a).N.loads)

(* A signal id the builder never returned is an [Invalid_argument], not
   an assertion, and leaves the builder usable: the bad gate is not
   added and the good one after it finalizes. *)
let test_builder_bad_ids () =
  let b = Builder.create "ids" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let raises label f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" label
    | exception Invalid_argument _ -> ()
  in
  raises "unknown input" (fun () ->
      ignore (Builder.add_gate b Gate_kind.Inv ~inputs:[| 999 |] ~output:y));
  raises "negative input" (fun () ->
      ignore (Builder.add_gate b Gate_kind.Inv ~inputs:[| -1 |] ~output:y));
  raises "unknown output" (fun () ->
      ignore (Builder.add_gate b Gate_kind.Inv ~inputs:[| a |] ~output:5));
  raises "mark unknown output" (fun () -> Builder.mark_output b 5);
  raises "bad slice" (fun () -> ignore (Builder.signal_sub b "abc" 2 5));
  ignore (Builder.add_gate b Gate_kind.Inv ~name:"g" ~inputs:[| a |] ~output:y);
  Builder.mark_output b y;
  let c = Builder.finalize b in
  checki "one gate" 1 (N.gate_count c);
  checki "two signals" 2 (N.signal_count c);
  checkb "y driven by g" true ((N.signal c y).N.driver = Some 0)

(* --- Check --- *)

let test_topo_order () =
  let c = G.inverter_chain ~n:5 () in
  match Check.topological_gates c with
  | None -> Alcotest.fail "chain is acyclic"
  | Some order ->
      checki "all gates" 5 (List.length order);
      (* every gate's fanin driver appears before it *)
      let position = Hashtbl.create 8 in
      List.iteri (fun i gid -> Hashtbl.replace position gid i) order;
      List.iter
        (fun gid ->
          let g = N.gate c gid in
          Array.iter
            (fun sid ->
              match (N.signal c sid).N.driver with
              | Some d ->
                  checkb "fanin first" true
                    (Hashtbl.find position d < Hashtbl.find position gid)
              | None -> ())
            g.N.fanin)
        order

let cyclic_circuit () =
  let b = Builder.create "cyc" in
  let a = Builder.input b "a" in
  let x = Builder.signal b "x" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g1" ~inputs:[| a; y |] ~output:x in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[| x |] ~output:y in
  Builder.mark_output b x;
  Builder.finalize b

let test_cycle_detection () =
  let c = cyclic_circuit () in
  checkb "no topo order" true (Check.topological_gates c = None);
  checkb "cycle reported" true
    (List.exists
       (function Check.Combinational_cycle _ -> true | _ -> false)
       (Check.structural_issues c));
  checkb "no depth" true (Check.depth c = None)

let test_issues_clean_circuit () =
  let c = G.inverter_chain ~n:3 () in
  checki "no issues" 0 (List.length (Check.structural_issues c))

let test_undriven_dangling () =
  let b = Builder.create "loose" in
  let a = Builder.input b "a" in
  let floating = Builder.signal b "floating" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g" ~inputs:[| a; floating |] ~output:y in
  (* y is not marked output: dangling *)
  let c = Builder.finalize b in
  let issues = Check.structural_issues c in
  checkb "undriven" true
    (List.exists (function Check.Undriven_signal _ -> true | _ -> false) issues);
  checkb "dangling" true
    (List.exists (function Check.Dangling_signal _ -> true | _ -> false) issues)

let test_levelize_depth () =
  let c = G.inverter_chain ~n:4 () in
  checkb "depth" true (Check.depth c = Some 4)

let test_max_fanout () =
  let f = G.fig1_circuit () in
  checki "out0 drives two" 2 (Check.max_fanout f.G.circuit)

(* --- Static evaluation helper (used for generator correctness) --- *)

let static_eval c ~input_levels =
  let levels = Array.make (N.signal_count c) false in
  Array.iter
    (fun (s : N.signal) ->
      match s.N.constant with
      | Some Value.L1 -> levels.(s.N.signal_id) <- true
      | Some (Value.L0 | Value.X | Value.Z) | None -> ())
    (N.signals c);
  List.iter2 (fun sid v -> levels.(sid) <- v) (N.primary_inputs c) input_levels;
  (match Check.topological_gates c with
  | Some order ->
      List.iter
        (fun gid ->
          let g = N.gate c gid in
          levels.(g.N.output) <-
            Gate_kind.eval_bool g.N.kind (Array.map (fun sid -> levels.(sid)) g.N.fanin))
        order
  | None -> Alcotest.fail "cycle");
  levels

let bits_of_int ~bits v = List.init bits (fun i -> (v lsr i) land 1 = 1)

let int_of_sigs levels sigs =
  List.fold_left (fun acc (i, sid) -> if levels.(sid) then acc lor (1 lsl i) else acc) 0
    (List.mapi (fun i s -> (i, s)) sigs)

(* --- Generators --- *)

let test_inverter_chain_shape () =
  let c = G.inverter_chain ~n:7 () in
  checki "gates" 7 (N.gate_count c);
  checki "signals" 8 (N.signal_count c);
  let levels = static_eval c ~input_levels:[ true ] in
  let out = match N.find_signal c "out" with Some s -> s | None -> assert false in
  checkb "odd chain inverts" true (not levels.(out))

let test_buffer_tree () =
  let c = Fixtures.buffer_tree ~depth:3 () in
  checki "outputs" 8 (List.length (N.primary_outputs c));
  checki "gates" 14 (N.gate_count c);
  let levels = static_eval c ~input_levels:[ true ] in
  List.iter (fun sid -> checkb "leaf" true levels.(sid)) (N.primary_outputs c)

(* The adders' full-adder cells: a 2-bit ripple adder's second cell
   sees every (a, b, cin) combination, the carry-in coming from the
   first cell. *)
let check_full_adder nand_only () =
  let ad = G.ripple_carry_adder ~nand_only ~bits:2 () in
  for x = 0 to 3 do
    for y = 0 to 3 do
      let bits v = [ v land 1 <> 0; v land 2 <> 0 ] in
      let levels = static_eval ad.G.adder_circuit ~input_levels:(bits x @ bits y) in
      let got =
        List.fold_left (fun (acc, w) sid -> ((if levels.(sid) then acc + w else acc), 2 * w)) (0, 1)
          ad.G.sum_bits
        |> fst
      in
      checki (Printf.sprintf "%d + %d" x y) (x + y) got
    done
  done

let test_full_adder_gate_counts () =
  let c5 = (G.ripple_carry_adder ~bits:1 ()).G.adder_circuit in
  let c9 = (G.ripple_carry_adder ~nand_only:true ~bits:1 ()).G.adder_circuit in
  checki "xor/and/or FA" 5 (N.gate_count c5);
  checki "nand9 FA" 9 (N.gate_count c9);
  checkb "nand-only really" true
    (Array.for_all
       (fun (g : N.gate) -> g.N.kind = Gate_kind.Nand 2)
       (N.gates c9))

let test_ripple_carry_adder () =
  let a = G.ripple_carry_adder ~bits:4 () in
  let c = a.G.adder_circuit in
  checki "sum bits" 5 (List.length a.G.sum_bits);
  (* exhaustive over 16x16 *)
  for x = 0 to 15 do
    for y = 0 to 15 do
      let levels =
        static_eval c ~input_levels:(bits_of_int ~bits:4 x @ bits_of_int ~bits:4 y)
      in
      checki (Printf.sprintf "%d+%d" x y) (x + y) (int_of_sigs levels a.G.sum_bits)
    done
  done

let check_multiplier ?(wallace = false) ~nand_only ~m ~n () =
  let mult =
    if wallace then G.wallace_multiplier ~m ~n ()
    else G.array_multiplier ~nand_only ~m ~n ()
  in
  let c = mult.G.mult_circuit in
  checki "product bits" (m + n) (List.length mult.G.product_bits);
  for x = 0 to (1 lsl m) - 1 do
    for y = 0 to (1 lsl n) - 1 do
      let levels =
        static_eval c ~input_levels:(bits_of_int ~bits:m x @ bits_of_int ~bits:n y)
      in
      checki (Printf.sprintf "%dx%d" x y) (x * y) (int_of_sigs levels mult.G.product_bits)
    done
  done

let test_multiplier_asymmetric () = check_multiplier ~nand_only:false ~m:3 ~n:5 ()
let test_multiplier_degenerate () = check_multiplier ~nand_only:false ~m:1 ~n:1 ()

module Equiv = Halotis_netlist.Equiv

let test_cla_exhaustive () =
  let a = G.carry_lookahead_adder ~bits:4 () in
  let c = a.G.adder_circuit in
  for x = 0 to 15 do
    for y = 0 to 15 do
      let levels =
        static_eval c ~input_levels:(bits_of_int ~bits:4 x @ bits_of_int ~bits:4 y)
      in
      checki (Printf.sprintf "%d+%d" x y) (x + y) (int_of_sigs levels a.G.sum_bits)
    done
  done

let test_cla_flatter_than_rca () =
  let rca = G.ripple_carry_adder ~bits:8 () in
  let cla = G.carry_lookahead_adder ~bits:8 () in
  match
    (Check.depth rca.G.adder_circuit, Check.depth cla.G.adder_circuit)
  with
  | Some dr, Some dc -> checkb (Printf.sprintf "cla %d < rca %d" dc dr) true (dc < dr)
  | _, _ -> Alcotest.fail "depth"

let test_equiv_rca_cla () =
  let rca = G.ripple_carry_adder ~bits:4 () in
  let cla = G.carry_lookahead_adder ~bits:4 () in
  checkb "equivalent" true
    (Equiv.check rca.G.adder_circuit cla.G.adder_circuit = Equiv.Equivalent)

let test_equiv_mult_architectures () =
  let array = G.array_multiplier ~m:4 ~n:4 () in
  let tree = G.wallace_multiplier ~m:4 ~n:4 () in
  (* interface differs: the array exposes an extra overflow output *)
  match Equiv.check array.G.mult_circuit tree.G.mult_circuit with
  | Equiv.Incompatible _ ->
      (* compare on the product bits instead *)
      for v = 0 to 255 do
        let inputs = List.init 8 (fun i -> (v lsr i) land 1 = 1) in
        let eval (m : G.multiplier) =
          let levels = static_eval m.G.mult_circuit ~input_levels:inputs in
          int_of_sigs levels m.G.product_bits
        in
        checki (Printf.sprintf "v=%d" v) (eval array) (eval tree)
      done
  | Equiv.Equivalent -> ()
  | Equiv.Counterexample _ -> Alcotest.fail "multipliers differ"

let test_equiv_detects_difference () =
  let c_and =
    let b = Builder.create "x" in
    let a = Builder.input b "a" in
    let x = Builder.input b "x" in
    let y = Builder.signal b "y" in
    let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"g" ~inputs:[| a; x |] ~output:y in
    Builder.mark_output b y;
    Builder.finalize b
  in
  let c_or =
    let b = Builder.create "x" in
    let a = Builder.input b "a" in
    let x = Builder.input b "x" in
    let y = Builder.signal b "y" in
    let _ = Builder.add_gate b (Gate_kind.Or 2) ~name:"g" ~inputs:[| a; x |] ~output:y in
    Builder.mark_output b y;
    Builder.finalize b
  in
  (match Equiv.check c_and c_or with
  | Equiv.Counterexample { inputs; _ } ->
      checki "two inputs" 2 (List.length inputs);
      checkb "pp renders" true
        (String.length (Format.asprintf "%a" Equiv.pp_verdict (Equiv.check c_and c_or)) > 5)
  | Equiv.Equivalent | Equiv.Incompatible _ -> Alcotest.fail "expected counterexample");
  (* incompatible interfaces *)
  let c1 = G.inverter_chain ~n:1 () in
  checkb "incompatible" true
    (match Equiv.check c1 c_and with Equiv.Incompatible _ -> true | Equiv.Equivalent | Equiv.Counterexample _ -> false)

let test_equiv_too_many_inputs () =
  let big = G.random_combinational ~gates:10 ~inputs:20 ~seed:1 () in
  checkb "refused" true
    (match Equiv.check big big with
    | Equiv.Incompatible _ -> true
    | Equiv.Equivalent | Equiv.Counterexample _ -> false)

let test_wallace_shallower () =
  (* the tree's whole point: logarithmic reduction depth *)
  let array = (G.array_multiplier ~m:6 ~n:6 ()).G.mult_circuit in
  let tree = (G.wallace_multiplier ~m:6 ~n:6 ()).G.mult_circuit in
  match (Check.depth array, Check.depth tree) with
  | Some da, Some dt -> checkb (Printf.sprintf "tree %d < array %d" dt da) true (dt < da)
  | _, _ -> Alcotest.fail "depth failed"

let test_fig1_shape () =
  let f = G.fig1_circuit ~vt_low:1.2 ~vt_high:3.8 () in
  let c = f.G.circuit in
  checki "six inverters" 6 (N.gate_count c);
  let g1 = Fixtures.gate_named c "g1" in
  let g2 = Fixtures.gate_named c "g2" in
  checkb "g1 vt" true ((N.gate c g1).N.input_vt.(0) = Some 1.2);
  checkb "g2 vt" true ((N.gate c g2).N.input_vt.(0) = Some 3.8);
  (* out0 drives both g1 and g2 *)
  checki "out0 fanout" 2 (List.length (N.fanout_gates c f.G.sig_out0))

let test_random_combinational () =
  let c = G.random_combinational ~gates:200 ~inputs:8 ~seed:3 () in
  checki "gates" 200 (N.gate_count c);
  checkb "acyclic" true (Check.topological_gates c <> None);
  checkb "has outputs" true (List.length (N.primary_outputs c) > 0)

let test_random_combinational_deterministic () =
  let c1 = G.random_combinational ~gates:50 ~inputs:4 ~seed:11 () in
  let c2 = G.random_combinational ~gates:50 ~inputs:4 ~seed:11 () in
  Alcotest.(check string) "same netlist" (Hnl.to_string c1) (Hnl.to_string c2)

(* --- HNL --- *)

let test_hnl_roundtrip_simple () =
  let c = G.inverter_chain ~n:3 () in
  match Hnl.parse_string (Hnl.to_string c) with
  | Ok c' -> Alcotest.(check string) "identical print" (Hnl.to_string c) (Hnl.to_string c')
  | Error e -> Alcotest.failf "parse error: %a" Halotis_util.Diag.pp e

let test_hnl_roundtrip_attributes () =
  let f = G.fig1_circuit () in
  match Hnl.parse_string (Hnl.to_string f.G.circuit) with
  | Ok c' ->
      Alcotest.(check string) "identical print" (Hnl.to_string f.G.circuit) (Hnl.to_string c');
      let g1 = Fixtures.gate_named c' "g1" in
      checkb "vt survives" true ((N.gate c' g1).N.input_vt.(0) = Some 1.5)
  | Error e -> Alcotest.failf "parse error: %a" Halotis_util.Diag.pp e

let test_hnl_roundtrip_constants () =
  let a = G.ripple_carry_adder ~bits:2 () in
  match Hnl.parse_string (Hnl.to_string a.G.adder_circuit) with
  | Ok c' ->
      Alcotest.(check string) "identical print"
        (Hnl.to_string a.G.adder_circuit) (Hnl.to_string c')
  | Error e -> Alcotest.failf "parse error: %a" Halotis_util.Diag.pp e

let test_hnl_parse_errors () =
  let expect_error text =
    match Hnl.parse_string text with
    | Ok _ -> Alcotest.failf "expected parse failure for %S" text
    | Error _ -> ()
  in
  expect_error "";
  expect_error "circuit c\n";
  (* missing end *)
  expect_error "circuit c\ncircuit d\nend\n";
  (* dup header *)
  expect_error "input a\nend\n";
  (* missing header *)
  expect_error "circuit c\ngate g bogus y a\nend\n";
  (* unknown kind *)
  expect_error "circuit c\ninput a\ngate g inv y a vt9=1.0\nend\n";
  (* pin range *)
  expect_error "circuit c\ninput a\ngate g inv y a\nend\nleftover\n";
  expect_error "circuit c\ninput a\ngate g and2 y a\nend\n" (* arity *)

let test_hnl_comments_and_whitespace () =
  let text =
    "# leading comment\n\
     circuit   demo\n\
     input a b   # two inputs\n\
     output y\n\
     gate g1 nand2 y a b\n\
     end\n"
  in
  match Hnl.parse_string text with
  | Ok c ->
      Alcotest.(check string) "name" "demo" (N.name c);
      checki "gates" 1 (N.gate_count c)
  | Error e -> Alcotest.failf "parse error: %a" Halotis_util.Diag.pp e

let test_hnl_file_io () =
  let c = G.inverter_chain ~n:2 () in
  let path = Filename.temp_file "halotis" ".hnl" in
  Out_channel.with_open_text path (fun oc -> output_string oc (Hnl.to_string c));
  (match Halotis_netlist.Circuit_file.parse_file path with
  | Ok c' -> Alcotest.(check string) "roundtrip" (Hnl.to_string c) (Hnl.to_string c')
  | Error e -> Alcotest.failf "parse error: %a" Halotis_util.Diag.pp e);
  Sys.remove path

let prop_hnl_roundtrip_random =
  QCheck.Test.make ~name:"hnl roundtrip on random circuits" ~count:25
    QCheck.(pair (int_range 1 60) (int_range 1 6))
    (fun (gates, inputs) ->
      let c = G.random_combinational ~gates ~inputs ~seed:(gates + (inputs * 1000)) () in
      match Hnl.parse_string (Hnl.to_string c) with
      | Ok c' -> Hnl.to_string c = Hnl.to_string c'
      | Error _ -> false)

(* --- ISCAS .bench --- *)

module Iscas = Halotis_netlist.Iscas
module Verilog = Halotis_netlist.Verilog

let test_c17_parses () =
  let c = Lazy.force Iscas.c17 in
  checki "gates" 6 (N.gate_count c);
  checki "inputs" 5 (List.length (N.primary_inputs c));
  checki "outputs" 2 (List.length (N.primary_outputs c));
  checki "no issues" 0 (List.length (Check.structural_issues c));
  checkb "depth" true (Check.depth c = Some 3)

let test_c17_truth () =
  (* c17: G22 = nand(nand(G1,G3), nand(G2, nand(G3,G6))) *)
  let c = Lazy.force Iscas.c17 in
  let g22 = match N.find_signal c "G22" with Some s -> s | None -> assert false in
  let g23 = match N.find_signal c "G23" with Some s -> s | None -> assert false in
  for v = 0 to 31 do
    let ins = List.init 5 (fun i -> (v lsr i) land 1 = 1) in
    let g1 = List.nth ins 0 and g2 = List.nth ins 1 and g3 = List.nth ins 2 in
    let g6 = List.nth ins 3 and g7 = List.nth ins 4 in
    let nand a b = not (a && b) in
    let g10 = nand g1 g3 and g11 = nand g3 g6 in
    let g16 = nand g2 g11 and g19 = nand g11 g7 in
    let levels = static_eval c ~input_levels:ins in
    checkb (Printf.sprintf "G22 v=%d" v) (nand g10 g16) levels.(g22);
    checkb (Printf.sprintf "G23 v=%d" v) (nand g16 g19) levels.(g23)
  done

let test_iscas_functions () =
  let text =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\n\
     t1 = AND(a, b, c)\nt2 = XNOR(a, b)\nt3 = NOT(c)\nt4 = BUFF(t3)\n\
     y = OR(t1, t2, t4)\n"
  in
  match Iscas.parse_string text with
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  | Ok c ->
      checki "gates" 5 (N.gate_count c);
      let levels = static_eval c ~input_levels:[ true; true; true ] in
      let y = match N.find_signal c "y" with Some s -> s | None -> assert false in
      checkb "truth" true levels.(y)

let test_iscas_errors () =
  let expect_error text =
    match Iscas.parse_string text with
    | Ok _ -> Alcotest.failf "expected failure for %S" text
    | Error _ -> ()
  in
  expect_error "y = FROB(a)\n";
  expect_error "y = NOT(a, b)\n";
  expect_error "y = AND(a)\n";
  expect_error "gibberish\n";
  expect_error "INPUT(a)\nINPUT(a)\n";
  expect_error "INPUT(a)\ny = NOT(a)\ny = NOT(a)\n"

let test_iscas_file () =
  let path = Filename.temp_file "halotis" ".bench" in
  let oc = open_out path in
  output_string oc "INPUT(a)\nOUTPUT(y)\ny = NOT(a)\n";
  close_out oc;
  (match Halotis_netlist.Circuit_file.parse_file path with
  | Ok c ->
      checki "one gate" 1 (N.gate_count c);
      Alcotest.(check string) "named after the file"
        (Filename.remove_extension (Filename.basename path))
        (N.name c)
  | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e));
  Sys.remove path

(* --- Verilog export --- *)

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_verilog_export () =
  let c = Lazy.force Iscas.c17 in
  let v = Verilog.to_string c in
  checkb "module" true (contains v "module c17 (");
  checkb "endmodule" true (contains v "endmodule");
  checkb "nand prims" true (contains v "nand ");
  checkb "inputs declared" true (contains v "input G1;");
  checkb "outputs declared" true (contains v "output G22;")

let test_verilog_decomposition () =
  let b = Builder.create "cells" in
  let a = Builder.input b "a" in
  let x = Builder.input b "x" in
  let s = Builder.input b "s" in
  let y1 = Builder.signal b "y1" in
  let y2 = Builder.signal b "y2" in
  let _ = Builder.add_gate b Gate_kind.Aoi21 ~name:"g1" ~inputs:[| a; x; s |] ~output:y1 in
  let _ = Builder.add_gate b Gate_kind.Mux2 ~name:"g2" ~inputs:[| a; x; s |] ~output:y2 in
  Builder.mark_output b y1;
  Builder.mark_output b y2;
  let c = Builder.finalize b in
  let v = Verilog.to_string c in
  checkb "aoi decomposed" true (contains v "nor g1");
  checkb "mux decomposed" true (contains v "and g2_a");
  checkb "fresh wires" true (contains v "wire halotis_")

let test_verilog_constants_and_attrs () =
  let f = G.fig1_circuit () in
  let rca = G.ripple_carry_adder ~bits:1 () in
  let v1 = Verilog.to_string f.G.circuit in
  checkb "vt comment" true (contains v1 "// vt0=");
  let v2 = Verilog.to_string rca.G.adder_circuit in
  checkb "tie cell" true (contains v2 "assign const_0 = 1'b0;")

let tests =
  [
    ( "netlist.iscas",
      [
        Alcotest.test_case "c17 parses" `Quick test_c17_parses;
        Alcotest.test_case "c17 truth table" `Quick test_c17_truth;
        Alcotest.test_case "functions" `Quick test_iscas_functions;
        Alcotest.test_case "errors" `Quick test_iscas_errors;
        Alcotest.test_case "file" `Quick test_iscas_file;
      ] );
    ( "netlist.verilog",
      [
        Alcotest.test_case "export" `Quick test_verilog_export;
        Alcotest.test_case "decomposition" `Quick test_verilog_decomposition;
        Alcotest.test_case "constants/attrs" `Quick test_verilog_constants_and_attrs;
      ] );
    ( "netlist.builder",
      [
        Alcotest.test_case "basic" `Quick test_builder_basic;
        Alcotest.test_case "find" `Quick test_builder_find;
        Alcotest.test_case "double drive" `Quick test_builder_double_drive;
        Alcotest.test_case "drive input" `Quick test_builder_drive_input;
        Alcotest.test_case "arity mismatch" `Quick test_builder_arity_mismatch;
        Alcotest.test_case "duplicate names" `Quick test_builder_duplicate_names;
        Alcotest.test_case "const shared" `Quick test_builder_const_shared;
        Alcotest.test_case "fresh names" `Quick test_builder_fresh_names_unique;
        Alcotest.test_case "fanout" `Quick test_fanout;
        Alcotest.test_case "unknown signal ids" `Quick test_builder_bad_ids;
      ] );
    ( "netlist.check",
      [
        Alcotest.test_case "topological order" `Quick test_topo_order;
        Alcotest.test_case "cycle detection" `Quick test_cycle_detection;
        Alcotest.test_case "clean circuit" `Quick test_issues_clean_circuit;
        Alcotest.test_case "undriven/dangling" `Quick test_undriven_dangling;
        Alcotest.test_case "levelize/depth" `Quick test_levelize_depth;
        Alcotest.test_case "max fanout" `Quick test_max_fanout;
      ] );
    ( "netlist.generators",
      [
        Alcotest.test_case "inverter chain" `Quick test_inverter_chain_shape;
        Alcotest.test_case "buffer tree" `Quick test_buffer_tree;
        Alcotest.test_case "full adder (xor)" `Quick (check_full_adder false);
        Alcotest.test_case "full adder (nand9)" `Quick (check_full_adder true);
        Alcotest.test_case "fa gate counts" `Quick test_full_adder_gate_counts;
        Alcotest.test_case "ripple adder exhaustive" `Quick test_ripple_carry_adder;
        Alcotest.test_case "mult 4x4 exhaustive" `Slow
          (check_multiplier ~nand_only:false ~m:4 ~n:4);
        Alcotest.test_case "mult 4x4 nand exhaustive" `Slow
          (check_multiplier ~nand_only:true ~m:4 ~n:4);
        Alcotest.test_case "mult 3x5" `Quick test_multiplier_asymmetric;
        Alcotest.test_case "wallace 4x4 exhaustive" `Slow
          (check_multiplier ~wallace:true ~nand_only:false ~m:4 ~n:4);
        Alcotest.test_case "wallace 3x5" `Quick
          (check_multiplier ~wallace:true ~nand_only:false ~m:3 ~n:5);
        Alcotest.test_case "wallace 1x1" `Quick
          (check_multiplier ~wallace:true ~nand_only:false ~m:1 ~n:1);
        Alcotest.test_case "wallace shallower" `Quick test_wallace_shallower;
        Alcotest.test_case "cla exhaustive" `Quick test_cla_exhaustive;
        Alcotest.test_case "cla flatter" `Quick test_cla_flatter_than_rca;
        Alcotest.test_case "rca = cla" `Quick test_equiv_rca_cla;
        Alcotest.test_case "array = wallace" `Slow test_equiv_mult_architectures;
        Alcotest.test_case "equiv counterexample" `Quick test_equiv_detects_difference;
        Alcotest.test_case "equiv input limit" `Quick test_equiv_too_many_inputs;
        Alcotest.test_case "mult 1x1" `Quick test_multiplier_degenerate;
        Alcotest.test_case "fig1 shape" `Quick test_fig1_shape;
        Alcotest.test_case "random combinational" `Quick test_random_combinational;
        Alcotest.test_case "random deterministic" `Quick
          test_random_combinational_deterministic;
      ] );
    ( "netlist.hnl",
      [
        Alcotest.test_case "roundtrip simple" `Quick test_hnl_roundtrip_simple;
        Alcotest.test_case "roundtrip attributes" `Quick test_hnl_roundtrip_attributes;
        Alcotest.test_case "roundtrip constants" `Quick test_hnl_roundtrip_constants;
        Alcotest.test_case "parse errors" `Quick test_hnl_parse_errors;
        Alcotest.test_case "comments/whitespace" `Quick test_hnl_comments_and_whitespace;
        Alcotest.test_case "file io" `Quick test_hnl_file_io;
        QCheck_alcotest.to_alcotest prop_hnl_roundtrip_random;
      ] );
  ]

(* Parsers must never raise on garbage — they return Error. *)
let prop_hnl_never_raises =
  QCheck.Test.make ~name:"hnl parser total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun text ->
      match Hnl.parse_string text with Ok _ | Error _ -> true)

let prop_iscas_never_raises =
  QCheck.Test.make ~name:"iscas parser total on garbage" ~count:300
    QCheck.(string_gen_of_size (QCheck.Gen.int_range 0 200) QCheck.Gen.printable)
    (fun text ->
      match Iscas.parse_string text with Ok _ | Error _ -> true)

(* Structured garbage: random directive-shaped lines. *)
let hnl_line_gen =
  QCheck.Gen.oneofl
    [
      "circuit x";
      "input a b";
      "output y";
      "gate g inv y a";
      "gate g nand2 y a b vt0=1.5";
      "gate g and2 y a const0";
      "input const_0";
      "gate k inv const_1 a";
      "end";
      "gate g xor9";
      "input";
      "vt0=oops";
      "gate h inv z a stray load=1";
      "# comment";
    ]

let prop_hnl_never_raises_structured =
  QCheck.Test.make ~name:"hnl parser total on shuffled directives" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_range 0 12) hnl_line_gen))
    (fun lines ->
      match Hnl.parse_string (String.concat "\n" lines) with Ok _ | Error _ -> true)

(* --- differential readers ---

   The library readers against the reference readers of
   [Ref_readers] (the pre-scanner implementations): on every input
   without a carriage return both return [Ok] with the same signals,
   gates, PI/PO lists and name lookups, or both return an [Error] with
   the same line and message (the library's is a diagnostic carrying
   the reader's code and hint, and no file). *)

module Ref = Ref_readers
module Stimfile = Halotis_stim.Stimfile

let same_netlist a b =
  let names f c = Array.to_list (Array.map f c) in
  let sig_names = names (fun s -> s.N.signal_name) (N.signals a) @ [ "missing" ] in
  let lookups c = List.map (N.find_signal c) sig_names in
  N.name a = N.name b
  && compare (N.signals a) (N.signals b) = 0
  && compare (N.gates a) (N.gates b) = 0
  && N.primary_inputs a = N.primary_inputs b
  && N.primary_outputs a = N.primary_outputs b
  && lookups a = lookups b

let agree same same_error r1 r2 =
  match (r1, r2) with
  | Ok a, Ok b -> same a b
  | Error e1, Error e2 -> same_error e1 e2
  | Ok _, Error _ | Error _, Ok _ -> false

(* the reference readers put an error that belongs to no line at line 0 *)
let ref_error code (d : Halotis_util.Diag.t) (line, message) =
  d.code = code
  && d.line = (if line = 0 then None else Some line)
  && d.message = message && d.file = None && d.hint <> None

let hnl_agree text =
  agree same_netlist (ref_error "netlist-parse") (Hnl.parse_string text) (Ref.Hnl.parse_string text)

let iscas_agree text =
  agree same_netlist (ref_error "iscas-parse") (Iscas.parse_string text)
    (Ref.Iscas.parse_string text)

let stim_agree text =
  agree
    (fun a b -> compare a b = 0)
    (ref_error "stim-parse") (Stimfile.parse_string text) (Ref.Stimfile.parse_string text)

(* A random NAND circuit whose signal names share a 48-byte prefix (on
   even seeds) and run in groups of 62 that differ only in their last
   byte: [s0_0] .. [s0_z], [s1_0] ... *)
let similar_names_circuit ~gates ~seed =
  let rng = Halotis_util.Prng.create ~seed in
  let prefix = if seed mod 2 = 0 then String.make 48 'q' else "" in
  let alnum = "0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz" in
  let name k = Printf.sprintf "%ss%d_%c" prefix (k / 62) alnum.[k mod 62] in
  let b = Builder.create "similar" in
  let inputs = 4 in
  let ids =
    Array.init (inputs + gates) (fun k -> if k < inputs then Builder.input b (name k) else 0)
  in
  for g = 0 to gates - 1 do
    let pick () = ids.(Halotis_util.Prng.int rng ~bound:(inputs + g)) in
    let x = pick () in
    let y = pick () in
    let out = Builder.signal b (name (inputs + g)) in
    ignore (Builder.add_gate b (Gate_kind.Nand 2) ~inputs:[| x; y |] ~output:out);
    ids.(inputs + g) <- out
  done;
  Builder.mark_output b ids.(inputs + gates - 1);
  Builder.finalize b

(* Circuits for the reader properties: small ones of every shape, then
   one in ten a 1,500-3,000-gate random circuit (so the name tables
   grow through several sizes) and one in ten with similar names. *)
let reader_circuit_gen ~small =
  QCheck.Gen.(
    let* seed = int_range 0 10_000 in
    (* a generator is a function of the random state: only the branch
       drawn builds its circuit *)
    frequency
      [
        (8, small seed);
        ( 1,
          fun _ ->
            G.random_combinational ~gates:(1500 + (seed mod 1501)) ~inputs:(1 + (seed mod 32))
              ~seed () );
        (1, fun _ -> similar_names_circuit ~gates:(1 + (seed mod 400)) ~seed);
      ])

(* A real circuit printed as HNL, its gate lines decorated with vt/load
   attributes; one document in four carries one bad attribute (a pin
   out of range, a bad value or a bad key). *)
let hnl_text_gen =
  QCheck.Gen.(
    let* c =
      reader_circuit_gen ~small:(fun seed ->
          let+ shape = int_range 0 3 in
          match shape with
          | 0 ->
              G.random_combinational ~gates:(1 + (seed mod 60)) ~inputs:(1 + (seed mod 6)) ~seed ()
          | 1 -> (G.array_multiplier ~m:(1 + (seed mod 3)) ~n:(1 + (seed mod 4)) ()).G.mult_circuit
          | 2 -> (G.fig1_circuit ()).G.circuit
          | _ -> (G.ripple_carry_adder ~bits:(1 + (seed mod 4)) ()).G.adder_circuit)
    in
    let good = [| ""; ""; " vt0=1.25"; " load=3.5"; " vt0=0.9 load=1 vt0=1" |]
    and bad = [| " vt9=1"; " vt0=x"; " vt=1"; " volts=2"; " load="; " stray"; " stray vt7=1" |] in
    let ngates = N.gate_count c in
    let* picks = list_repeat ngates (int_bound (Array.length good - 1))
    and* bad_at = int_bound ((4 * ngates) - 1)
    and* bad_pick = int_bound (Array.length bad - 1) in
    let picks = Array.of_list picks and gate = ref (-1) in
    String.split_on_char '\n' (Hnl.to_string c)
    |> List.map (fun l ->
           if String.starts_with ~prefix:"gate " l then begin
             incr gate;
             l ^ good.(picks.(!gate)) ^ if !gate = bad_at then bad.(bad_pick) else ""
           end
           else l)
    |> String.concat "\n" |> return)

(* Valid documents reordered or damaged: the [body] lines shuffled
   among themselves (so signals are first mentioned elsewhere and ids
   change), a dropped, repeated or swapped line, or a truncation at a
   random byte. *)
let mutate_gen ~body text_gen =
  QCheck.Gen.(
    let* text = text_gen and* how = int_range 0 7 and* r1 = nat and* r2 = nat in
    let lines = Array.of_list (String.split_on_char '\n' text) in
    let n = Array.length lines in
    let i = r1 mod n and j = r2 mod n in
    let slots = List.filter (fun k -> body lines.(k)) (List.init n Fun.id) in
    let+ order = shuffle_l (List.map (fun k -> lines.(k)) slots) in
    let join () = String.concat "\n" (Array.to_list lines) in
    match how with
    | 0 | 6 -> text
    | 1 -> String.concat "\n" (List.filteri (fun k _ -> k <> i) (Array.to_list lines))
    | 2 -> join () ^ "\n" ^ lines.(i)
    | 3 ->
        let t = lines.(i) in
        lines.(i) <- lines.(j);
        lines.(j) <- t;
        join ()
    | 4 -> String.sub text 0 (r1 mod (String.length text + 1))
    | _ ->
        List.iter2 (fun k l -> lines.(k) <- l) slots order;
        join ())

(* Printable garbage plus the blanks and bytes the readers treat
   specially (tab, form feed, '#'), but never a carriage return. *)
let garbage_gen =
  QCheck.Gen.(
    string_size
      ~gen:(frequency [ (8, printable); (1, oneofl [ '\t'; '\012'; '#'; ' '; '\n'; '=' ]) ])
      (int_range 0 200))

let lines_gen line_gen = QCheck.Gen.(map (String.concat "\n") (list_size (int_range 0 12) line_gen))

let bench_text_gen =
  QCheck.Gen.(
    let+ c =
      reader_circuit_gen ~small:(fun seed ->
          let+ gates = int_range 1 50 in
          G.random_combinational ~gates ~inputs:(1 + (seed mod 5)) ~seed ())
    in
    match Iscas.to_string c with Ok t -> t | Error m -> failwith m)

let bench_line_gen =
  QCheck.Gen.oneofl
    [
      "INPUT(G1)";
      "input( G2 )";
      "OUTPUT(G3)";
      "G3 = NAND(G1, G2)";
      "G4 = not(G3)";
      "G5 = AND(G1)";
      "G6 = FOO(G1, G2)";
      "G7 NAND(G1, G2)";
      "G8 = NAND G1";
      "G1 = BUFF(G2)";
      "  G9 = XOR(G1,,G2) # trailing";
      "INPUT(G1)";
      "\012";
    ]

let hsv_line_gen =
  QCheck.Gen.oneofl
    [
      "slope 100";
      "slope 0";
      "slope x";
      "slope";
      "slope 100 200";
      "input a 0";
      "input b 1 0@100 1@250.5";
      "input a 1";
      "input c 2";
      "input d 0 1@x";
      "input e 0 1@-5";
      "input f 0 10";
      "input";
      "input g";
      "\tinput h  1  0@3   # tail";
      "bogus line";
      "# comment";
    ]

let hsv_text_gen =
  QCheck.Gen.(
    let* n = int_range 0 8 and* seed = nat in
    let rng = Halotis_util.Prng.create ~seed in
    let line k =
      let changes =
        List.init (Halotis_util.Prng.int rng ~bound:5) (fun i ->
            Printf.sprintf " %d@%d" (i mod 2) (100 * (i + 1)))
      in
      Printf.sprintf "input in%d %d%s" k (Halotis_util.Prng.int rng ~bound:2) (String.concat "" changes)
    in
    return (String.concat "\n" ("slope 80" :: List.init n line)))

let differential name agree ~docs ~lines =
  QCheck.Test.make ~name ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S")
       (QCheck.Gen.frequency [ (3, docs); (1, lines_gen lines); (1, garbage_gen) ]))
    agree

let prop_hnl_differential =
  differential "hnl reader = reference reader" hnl_agree ~lines:hnl_line_gen
    ~docs:(mutate_gen ~body:(String.starts_with ~prefix:"gate ") hnl_text_gen)

let prop_iscas_differential =
  differential "iscas reader = reference reader" iscas_agree ~lines:bench_line_gen
    ~docs:(mutate_gen ~body:(fun l -> String.contains l '=') bench_text_gen)

let prop_stim_differential =
  differential "hsv reader = reference reader" stim_agree ~lines:hsv_line_gen
    ~docs:(mutate_gen ~body:(String.starts_with ~prefix:"input ") hsv_text_gen)

(* CRLF text reads like its LF copy: carriage returns are blanks. *)
let test_crlf_fixtures () =
  let read f = In_channel.with_open_bin (Filename.concat "../examples/data" f) In_channel.input_all in
  let crlf text = String.concat "\r\n" (String.split_on_char '\n' text) in
  let check label same parse f =
    let text = read f in
    checkb (label ^ " " ^ f) true (agree same ( = ) (parse text) (parse (crlf text)))
  in
  List.iter (check "hnl" same_netlist Hnl.parse_string)
    [ "c17.hnl"; "fig1.hnl"; "flawed.hnl"; "mult4x4.hnl"; "ring.hnl" ];
  List.iter (check "hsv" (fun a b -> compare a b = 0) Stimfile.parse_string)
    [ "c17_flawed.hsv"; "c17_walk.hsv"; "fig1_pulse.hsv"; "mult4x4.hsv"; "ring.hsv" ];
  check "bench" same_netlist (Iscas.parse_string ~name:"c17") "c17.bench";
  (match Hnl.parse_string "circuit c\r\ninput a\r\noutput y\r\ngate g inv y a\r\nend\r\n" with
  | Ok c -> checkb "no CR in names" true (N.find_signal c "a" <> None)
  | Error e -> Alcotest.failf "CRLF hnl: %a" Halotis_util.Diag.pp e);
  match Stimfile.parse_string "slope 100\r\ninput a 0 1@5\r\n" with
  | Ok st -> checkb "slope" true (st.Stimfile.slope = 100.)
  | Error e -> Alcotest.failf "CRLF hsv: %s" (Halotis_util.Diag.to_string e)

(* A tie operand's shared signal is named const_0/const_1; a document
   that already uses that name gets an error on the gate's line, the
   same from both readers, whichever line names it first. *)
let test_tie_name_collision () =
  let docs v =
    [
      Printf.sprintf "circuit x\ninput const_%d\noutput y\ngate g inv y const%d\nend\n" v v;
      Printf.sprintf
        "circuit x\ninput a\ngate h inv const_%d a\noutput y\ngate g inv y const%d\nend\n" v v;
    ]
  in
  List.iter
    (fun text ->
      (match Hnl.parse_string text with
      | Error { Hnl.line; message; _ } ->
          checkb (text ^ " line") true
            (line = Some (List.length (String.split_on_char '\n' text) - 2));
          checkb message true (String.ends_with ~suffix:"already used" message)
      | Ok _ -> Alcotest.failf "expected a tie-name error for %S" text);
      checkb ("reference reader agrees on " ^ text) true (hnl_agree text))
    (docs 0 @ docs 1)

(* Every reader's [parse_file] returns a path it cannot read (missing,
   or a directory) as an [io] diagnostic naming the path, never an
   exception; a malformed file is the reader's own code, at the file. *)
let test_readers_file_errors () =
  let dir = Filename.temp_dir "halotis" "" in
  let check name ext bad read =
    let missing = Filename.concat dir ("absent" ^ ext)
    and sub = Filename.concat dir ("dir" ^ ext)
    and malformed = Filename.concat dir ("bad" ^ ext) in
    Sys.mkdir sub 0o755;
    Out_channel.with_open_bin malformed (fun oc -> output_string oc bad);
    List.iter
      (fun (path, code) ->
        match read path with
        | Ok () -> Alcotest.failf "%s: %s parsed" name path
        | Error (d : Halotis_util.Diag.t) ->
            Alcotest.(check string) (name ^ " code " ^ path) code d.code;
            if code = "io" then
              checkb (name ^ " io names the path") true (String.starts_with ~prefix:path d.message)
            else checkb (name ^ " parse error at the file") true (d.file = Some path)
        | exception e -> Alcotest.failf "%s raised %s on %s" name (Printexc.to_string e) path)
      [ (missing, "io"); (sub, "io"); (malformed, name ^ "-parse") ];
    Sys.rmdir sub;
    Sys.remove malformed
  in
  let drop r = Result.map ignore r in
  let circuit p = drop (Halotis_netlist.Circuit_file.parse_file p) in
  check "netlist" ".hnl" "circuit x\nbogus\n" circuit;
  check "iscas" ".bench" "INPUT(a)\ny NOT(a)\n" circuit;
  check "stim" ".hsv" "input a 2\n" (fun p -> drop (Stimfile.parse_file p));
  check "vcd" ".vcd" "$var wire 8 ! a $end\n" (fun p -> drop (Halotis_wave.Vcd_reader.parse_file p));
  check "liberty" ".lib" "library (x {" (fun p -> drop (Halotis_liberty.Liberty.parse_file p));
  Sys.rmdir dir

let tests =
  tests
  @ [
      ( "netlist.fuzz",
        [
          QCheck_alcotest.to_alcotest prop_hnl_never_raises;
          QCheck_alcotest.to_alcotest prop_iscas_never_raises;
          QCheck_alcotest.to_alcotest prop_hnl_never_raises_structured;
          QCheck_alcotest.to_alcotest prop_hnl_differential;
          QCheck_alcotest.to_alcotest prop_iscas_differential;
          QCheck_alcotest.to_alcotest prop_stim_differential;
          Alcotest.test_case "CRLF reads like LF" `Quick test_crlf_fixtures;
          Alcotest.test_case "tie name collision is a line error" `Quick test_tie_name_collision;
          Alcotest.test_case "parse_file: unreadable path is an io error" `Quick
            test_readers_file_errors;
        ] );
    ]

(* --- bench writer --- *)

let test_bench_writer_roundtrip () =
  let c = Lazy.force Iscas.c17 in
  match Iscas.to_string c with
  | Error m -> Alcotest.fail m
  | Ok text -> (
      match Iscas.parse_string ~name:"c17" text with
      | Error e -> Alcotest.failf "reparse: %s" (Halotis_util.Diag.to_string e)
      | Ok c2 ->
          checkb "equivalent" true (Equiv.check c c2 = Equiv.Equivalent);
          checki "same gates" (N.gate_count c) (N.gate_count c2))

let test_bench_writer_multiplier () =
  (* the XOR-FA multiplier uses tie cells for the carry-save boundary:
     the writer must refuse it, while the wallace tree (tie cells only
     in the vector merge)... both use const0; refusal expected *)
  let m = G.array_multiplier ~m:2 ~n:2 () in
  (match Iscas.to_string m.G.mult_circuit with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected refusal for tie cells");
  (* a cla-free circuit exports fine *)
  let f = G.fig1_circuit () in
  match Iscas.to_string f.G.circuit with
  | Ok text -> checkb "renders" true (String.length text > 50)
  | Error m -> Alcotest.fail m

let test_bench_writer_complex_cells () =
  let b = Builder.create "x" in
  let a = Builder.input b "a" in
  let s = Builder.input b "s" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Mux2 ~name:"g" ~inputs:[| a; a; s |] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  match Iscas.to_string c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected refusal for mux2"

(* --- clock helper --- *)

module V2 = Halotis_stim.Vectors

let test_clock_drive () =
  let d = V2.clock ~slope:100. ~period:4000. ~start:1000. ~pulses:3 () in
  checki "six changes" 6 (List.length d.Halotis_engine.Drive.transitions);
  checkb "raises on negative pulses" true
    (try
       ignore (V2.clock ~slope:100. ~period:4000. ~start:0. ~pulses:(-1) ());
       false
     with Invalid_argument _ -> true)

let tests =
  tests
  @ [
      ( "netlist.bench_writer",
        [
          Alcotest.test_case "c17 roundtrip" `Quick test_bench_writer_roundtrip;
          Alcotest.test_case "tie cells refused" `Quick test_bench_writer_multiplier;
          Alcotest.test_case "complex cells refused" `Quick test_bench_writer_complex_cells;
          Alcotest.test_case "clock helper" `Quick test_clock_drive;
        ] );
    ]

(* --- check analyses: depth, cycles, SCCs --- *)

(* a -> g1 -> g2 -> g3 (chain), plus b joining at g2: depth 3 *)
let chain_circuit () =
  let b = Builder.create "chain" in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let w1 = Builder.signal b "w1" in
  let w2 = Builder.signal b "w2" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g1" ~inputs:[| a |] ~output:w1 in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g2" ~inputs:[| w1; bb |] ~output:w2 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g3" ~inputs:[| w2 |] ~output:y in
  Builder.mark_output b y;
  Builder.finalize b

(* two disjoint feedback loops: {f1,f2} and the self-loop {s} *)
let two_scc_circuit () =
  let b = Builder.create "loops" in
  let a = Builder.input b "a" in
  let w1 = Builder.signal b "w1" in
  let w2 = Builder.signal b "w2" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"f1" ~inputs:[| a; w2 |] ~output:w1 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"f2" ~inputs:[| w1 |] ~output:w2 in
  Builder.mark_output b w1;
  let s = Builder.signal b "s" in
  let _ = Builder.add_gate b (Gate_kind.And 2) ~name:"s" ~inputs:[| s; a |] ~output:s in
  Builder.mark_output b s;
  Builder.finalize b

(* b joins at g2, so the depth is the a -> g1 -> g2 -> g3 chain's *)
let test_levelize_depth () =
  let c = chain_circuit () in
  checkb "depth" true (Check.depth c = Some 3);
  let empty = Builder.finalize (Builder.create "empty") in
  checkb "empty depth" true (Check.depth empty = Some 0);
  checkb "cyclic depth" true (Check.depth (two_scc_circuit ()) = None)

let test_find_cycle_witness () =
  let c = two_scc_circuit () in
  match Check.find_cycle c with
  | None -> Alcotest.fail "expected a cycle"
  | Some cycle ->
      checkb "non-empty" true (cycle <> []);
      (* each gate's output must feed the next gate (cyclically) *)
      let n = List.length cycle in
      List.iteri
        (fun i g ->
          let next = List.nth cycle ((i + 1) mod n) in
          let out = (N.gate c g).N.output in
          checkb
            (Printf.sprintf "%s feeds %s" (N.gate_name c g) (N.gate_name c next))
            true
            (List.mem next (N.fanout_gates c out)))
        cycle

let test_sccs_enumerates_all () =
  let c = two_scc_circuit () in
  let sccs =
    Check.sccs c
    |> List.map (fun scc -> List.sort String.compare (List.map (N.gate_name c) scc))
    |> List.sort compare
  in
  checkb "both regions, including the self-loop" true
    (sccs = [ [ "f1"; "f2" ]; [ "s" ] ]);
  checki "acyclic circuit has none" 0 (List.length (Check.sccs (chain_circuit ())));
  checki "c17 has none" 0
    (List.length (Check.sccs (Lazy.force Halotis_netlist.Iscas.c17)))

let test_unused_pi_vs_dangling () =
  let b = Builder.create "pins" in
  let a = Builder.input b "a" in
  let _unused = Builder.input b "unused" in
  let d = Builder.signal b "d" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g" ~inputs:[| a |] ~output:d in
  let c = Builder.finalize b in
  let issues = Check.structural_issues c in
  let unused_pis =
    List.filter_map
      (function Check.Unused_primary_input s -> Some (N.signal_name c s) | _ -> None)
      issues
  in
  let dangling =
    List.filter_map
      (function Check.Dangling_signal s -> Some (N.signal_name c s) | _ -> None)
      issues
  in
  checkb "unused PI reported as such" true (unused_pis = [ "unused" ]);
  checkb "dangling internal reported as such" true (dangling = [ "d" ])

let tests =
  tests
  @ [
      ( "netlist.analyses",
        [
          Alcotest.test_case "levelize and depth" `Quick test_levelize_depth;
          Alcotest.test_case "cycle witness is a cycle" `Quick test_find_cycle_witness;
          Alcotest.test_case "sccs enumerates all regions" `Quick test_sccs_enumerates_all;
          Alcotest.test_case "unused PI vs dangling" `Quick test_unused_pi_vs_dangling;
        ] );
    ]
