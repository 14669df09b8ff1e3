(* Unit and property tests for Halotis_util. *)

module Heap = Ref_heap
module Approx = Halotis_util.Approx
module Prng = Halotis_util.Prng
module Linfit = Halotis_util.Linfit
module Units = Halotis_util.Units
module Json = Halotis_util.Json

let check = Alcotest.check
let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* --- Heap --- *)

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  checkb "empty" true (Heap.is_empty h);
  checkb "pop none" true (Heap.pop_min h = None);
  checkb "peek none" true (Heap.peek_min h = None)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun k -> ignore (Heap.insert h ~key:k (int_of_float k))) [ 5.; 1.; 3.; 2.; 4. ];
  let order = List.init 5 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> -1) in
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 4; 5 ] order

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> ignore (Heap.insert h ~key:7. v)) [ "a"; "b"; "c" ];
  let order = List.init 3 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> "?") in
  check Alcotest.(list string) "fifo on equal keys" [ "a"; "b"; "c" ] order

let test_heap_remove () =
  let h = Heap.create () in
  let _a = Heap.insert h ~key:1. "a" in
  let b = Heap.insert h ~key:2. "b" in
  let _c = Heap.insert h ~key:3. "c" in
  checkb "remove live" true (Heap.remove h b);
  checkb "remove dead" false (Heap.remove h b);
  checki "length" 2 (Heap.length h);
  let order = List.init 2 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> "?") in
  check Alcotest.(list string) "b gone" [ "a"; "c" ] order

let test_heap_remove_popped () =
  let h = Heap.create () in
  let a = Heap.insert h ~key:1. "a" in
  ignore (Heap.pop_min h);
  checkb "mem after pop" false (Heap.mem h a);
  checkb "remove after pop" false (Heap.remove h a)

let test_heap_key_of () =
  let h = Heap.create () in
  let a = Heap.insert h ~key:4.5 "a" in
  checkb "key" true (Heap.key_of h a = Some 4.5);
  ignore (Heap.pop_min h);
  checkb "key gone" true (Heap.key_of h a = None)

let test_heap_to_sorted_list () =
  let h = Heap.create () in
  List.iter (fun k -> ignore (Heap.insert h ~key:k k)) [ 3.; 1.; 2. ];
  let keys = List.map fst (Heap.to_sorted_list h) in
  check Alcotest.(list (float 0.)) "sorted view" [ 1.; 2.; 3. ] keys;
  checki "non destructive" 3 (Heap.length h)

(* Property: heap pop order equals stable sort by key of the surviving
   inserts, under a random interleaving of inserts and removals. *)
let prop_heap_matches_sorted =
  QCheck.Test.make ~name:"heap pop order = stable sort (with removals)" ~count:200
    QCheck.(list (pair (float_range 0. 100.) bool))
    (fun ops ->
      let h = Heap.create () in
      let live = ref [] in
      List.iteri
        (fun i (key, remove_one) ->
          let handle = Heap.insert h ~key (i, key) in
          live := (handle, (i, key)) :: !live;
          if remove_one && List.length !live > 1 then begin
            match !live with
            | _ :: (victim, _) :: _rest ->
                ignore (Heap.remove h victim);
                live := List.filter (fun (hd, _) -> hd != victim) !live
            | [ _ ] | [] -> ()
          end)
        ops;
      let expected =
        !live
        |> List.map snd
        |> List.sort (fun (i1, k1) (i2, k2) ->
               match Float.compare k1 k2 with 0 -> Int.compare i1 i2 | c -> c)
      in
      let popped =
        let rec drain acc =
          match Heap.pop_min h with None -> List.rev acc | Some (_, v) -> drain (v :: acc)
        in
        drain []
      in
      popped = expected)

(* --- Approx --- *)

let test_approx_basic () =
  checkb "equal within eps" true (Approx.equal 1.0 (1.0 +. 1e-9));
  checkb "not equal" false (Approx.equal 1.0 1.1);
  checkb "leq" true (Approx.leq 1.0 1.0);
  checkb "lt strict" false (Approx.lt 1.0 (1.0 +. 1e-9));
  checkb "lt true" true (Approx.lt 1.0 2.0);
  checkb "gt" true (Approx.gt 2.0 1.0);
  checkb "geq" true (Approx.geq 1.0 (1.0 +. 1e-9))

let test_approx_clamp () =
  checkf "clamp lo" 0. (Approx.clamp ~lo:0. ~hi:1. (-5.));
  checkf "clamp hi" 1. (Approx.clamp ~lo:0. ~hi:1. 5.);
  checkf "clamp mid" 0.5 (Approx.clamp ~lo:0. ~hi:1. 0.5)

let test_approx_finite () =
  checkb "nan" false (Approx.is_finite Float.nan);
  checkb "inf" false (Approx.is_finite Float.infinity);
  checkb "num" true (Approx.is_finite 3.14)

(* --- Prng --- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  let xs g = List.init 20 (fun _ -> Prng.int g ~bound:1000) in
  check Alcotest.(list int) "same seed same stream" (xs a) (xs b)

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let xs g = List.init 20 (fun _ -> Prng.int g ~bound:1_000_000) in
  checkb "different seeds differ" false (xs a = xs b)

let test_prng_split () =
  let g = Prng.create ~seed:9 in
  let child = Prng.split g in
  let xs g = List.init 10 (fun _ -> Prng.int g ~bound:1_000_000) in
  checkb "split independent" false (xs g = xs child)

let prop_prng_int_range =
  QCheck.Test.make ~name:"prng int in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g ~bound in
      v >= 0 && v < bound)

let prop_prng_float_range =
  QCheck.Test.make ~name:"prng float in range" ~count:500
    QCheck.(pair small_int (float_range 0.001 1e6))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.float g ~bound in
      v >= 0. && v < bound)

(* --- Linfit --- *)

let test_linfit_exact_line () =
  let samples = List.init 10 (fun i -> (float_of_int i, (2.5 *. float_of_int i) -. 3.)) in
  match Linfit.linear_regression samples with
  | Some (a, b) ->
      checkf "slope" 2.5 a;
      checkf "intercept" (-3.) b;
      checkf "r2" 1.0 (Linfit.r_squared samples ~a ~b)
  | None -> Alcotest.fail "expected a fit"

let test_linfit_degenerate () =
  checkb "empty" true (Linfit.linear_regression [] = None);
  checkb "single" true (Linfit.linear_regression [ (1., 2.) ] = None);
  checkb "vertical" true (Linfit.linear_regression [ (1., 2.); (1., 3.) ] = None)

let test_linfit_mean () =
  checkf "empty mean" 0. (Linfit.mean []);
  checkf "mean" 2. (Linfit.mean [ 1.; 2.; 3. ])

let prop_linfit_recovers_line =
  QCheck.Test.make ~name:"linfit recovers noiseless lines" ~count:200
    QCheck.(triple (float_range (-10.) 10.) (float_range (-100.) 100.) (int_range 3 30))
    (fun (a, b, n) ->
      let samples = List.init n (fun i -> (float_of_int i, (a *. float_of_int i) +. b)) in
      match Linfit.linear_regression samples with
      | Some (a', b') -> Float.abs (a -. a') < 1e-6 && Float.abs (b -. b') < 1e-4
      | None -> false)

(* --- Units --- *)

let test_units_formatting () =
  check Alcotest.string "ps" "250.0ps" (Units.time_to_string 250.);
  check Alcotest.string "ns" "2.500ns" (Units.time_to_string 2500.);
  checkf "ns conversion" 2.5 (Units.time_to_ns 2500.);
  checkf "ns constructor" 2500. (Units.ns 2.5)

(* --- Json --- *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("tool", Json.Str "halotis");
        ("nums", Json.Arr [ Json.Num 1.; Json.Num (-2.5); Json.Num 0. ]);
        ("flags", Json.Obj [ ("a", Json.Bool true); ("b", Json.Bool false) ]);
        ("nothing", Json.Null);
        ("escaped", Json.Str "quote\" slash\\ newline\n tab\t");
      ]
  in
  (match Json.parse (Json.to_string doc) with
  | Ok doc' -> checkb "round trip" true (doc = doc')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match Json.parse (Json.to_string ~indent:true doc) with
  | Ok doc' -> checkb "indented round trip" true (doc = doc')
  | Error e -> Alcotest.failf "indented parse failed: %s" e

let test_json_accessors () =
  let doc = Json.Obj [ ("x", Json.Num 3.5); ("s", Json.Str "hi") ] in
  checkb "member" true (Json.member "x" doc = Some (Json.Num 3.5));
  checkb "missing member" true (Json.member "y" doc = None);
  checkb "to_float" true (Json.to_float (Json.Num 3.5) = Some 3.5);
  checkb "to_str" true (Json.to_str (Json.Str "hi") = Some "hi");
  checkb "parse error" true (match Json.parse "{" with Error _ -> true | Ok _ -> false)

let tests =
  [
    ( "util.json",
      [
        Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "remove" `Quick test_heap_remove;
        Alcotest.test_case "remove popped" `Quick test_heap_remove_popped;
        Alcotest.test_case "key_of" `Quick test_heap_key_of;
        Alcotest.test_case "to_sorted_list" `Quick test_heap_to_sorted_list;
        QCheck_alcotest.to_alcotest prop_heap_matches_sorted;
      ] );
    ( "util.approx",
      [
        Alcotest.test_case "comparisons" `Quick test_approx_basic;
        Alcotest.test_case "clamp" `Quick test_approx_clamp;
        Alcotest.test_case "finite" `Quick test_approx_finite;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
        Alcotest.test_case "split" `Quick test_prng_split;
        QCheck_alcotest.to_alcotest prop_prng_int_range;
        QCheck_alcotest.to_alcotest prop_prng_float_range;
      ] );
    ( "util.linfit",
      [
        Alcotest.test_case "exact line" `Quick test_linfit_exact_line;
        Alcotest.test_case "degenerate" `Quick test_linfit_degenerate;
        Alcotest.test_case "mean" `Quick test_linfit_mean;
        QCheck_alcotest.to_alcotest prop_linfit_recovers_line;
      ] );
    ("util.units", [ Alcotest.test_case "formatting" `Quick test_units_formatting ]);
  ]
