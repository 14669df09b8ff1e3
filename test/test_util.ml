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
  List.iteri
    (fun i k -> ignore (Heap.insert h ~key:k ~rank:i (int_of_float k)))
    [ 5.; 1.; 3.; 2.; 4. ];
  let order = List.init 5 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> -1) in
  check Alcotest.(list int) "sorted" [ 1; 2; 3; 4; 5 ] order

(* Equal keys pop by rank, so ranks stamped in insertion order pop
   first-in first-out. *)
let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> ignore (Heap.insert h ~key:7. ~rank:(2 - i) v)) [ "c"; "b"; "a" ];
  List.iteri (fun i v -> ignore (Heap.insert h ~key:8. ~rank:i v)) [ "d"; "e" ];
  let order = List.init 5 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> "?") in
  check Alcotest.(list string) "rank order on equal keys" [ "a"; "b"; "c"; "d"; "e" ] order

let test_heap_remove () =
  let h = Heap.create () in
  let _a = Heap.insert h ~key:1. ~rank:0 "a" in
  let b = Heap.insert h ~key:2. ~rank:1 "b" in
  let _c = Heap.insert h ~key:3. ~rank:2 "c" in
  checkb "remove live" true (Heap.remove h b);
  checkb "remove dead" false (Heap.remove h b);
  checki "length" 2 (Heap.length h);
  let order = List.init 2 (fun _ -> match Heap.pop_min h with Some (_, v) -> v | None -> "?") in
  check Alcotest.(list string) "b gone" [ "a"; "c" ] order

let test_heap_remove_popped () =
  let h = Heap.create () in
  let a = Heap.insert h ~key:1. ~rank:0 "a" in
  ignore (Heap.pop_min h);
  checkb "mem after pop" false (Heap.mem h a);
  checkb "remove after pop" false (Heap.remove h a)

let test_heap_key_of () =
  let h = Heap.create () in
  let a = Heap.insert h ~key:4.5 ~rank:0 "a" in
  checkb "key" true (Heap.key_of h a = Some 4.5);
  ignore (Heap.pop_min h);
  checkb "key gone" true (Heap.key_of h a = None)

(* Property: with insertion-order ranks, heap pop order equals stable
   sort by key of the surviving inserts, under a random interleaving of
   inserts and removals. *)
let prop_heap_matches_sorted =
  QCheck.Test.make ~name:"heap pop order = stable sort (with removals)" ~count:200
    QCheck.(list (pair (float_range 0. 100.) bool))
    (fun ops ->
      let h = Heap.create () in
      let live = ref [] in
      List.iteri
        (fun i (key, remove_one) ->
          let handle = Heap.insert h ~key ~rank:i (i, key) in
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

(* a least-squares line passes through the samples' means: here (1, 2) *)
let test_linfit_mean () =
  match Linfit.linear_regression [ (0., 1.); (1., 3.); (2., 2.) ] with
  | Some (a, b) ->
      checkf "slope" 0.5 a;
      checkf "through the means" 2. ((a *. 1.) +. b)
  | None -> Alcotest.fail "expected a fit"

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
  let str t = Format.asprintf "%a" Units.pp_time t in
  check Alcotest.string "ps" "250.0ps" (str 250.);
  check Alcotest.string "ns" "2.500ns" (str 2500.)

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
  checkb "parse error" true (match Json.parse "{" with Error _ -> true | Ok _ -> false)

(* Strings for the codec properties: quotes, backslashes, every
   control byte, high bytes, plain runs and the empty string. *)
let json_string_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        ( 6,
          string_size
            ~gen:
              (frequency
                 [
                   (4, oneofl [ 'a'; 'Z'; ' '; '/'; '0' ]);
                   (2, oneofl [ '"'; '\\' ]);
                   (2, map Char.chr (int_bound 0x1f));
                   (1, map Char.chr (int_range 0x7f 0xff));
                 ])
            (int_range 0 24) );
        (1, string_size ~gen:(return 'x') (int_range 100 600));
      ])

(* The integer fast path, the allocation-free indent and the escaper
   that copies plain runs must print exactly what the old formatter
   ({!Ref_json}) printed: signed zeros, the 1e15 cut-over,
   non-integers, nan and the infinities, and strings of every byte
   class as values and as keys, alone and nested at random depths. *)
let prop_json_matches_reference =
  let special =
    [ 0.; -0.; 1e15; -1e15; 1e15 -. 1.; -.(1e15 -. 1.); 1e15 +. 2.; 0.5; -2.5; 1e-300;
      Float.nan; Float.infinity; Float.neg_infinity; 4503599627370496.; max_float;
      float_of_int max_int ]
  in
  let num =
    QCheck.Gen.(
      frequency
        [
          (3, oneofl special);
          (3, map float_of_int (int_range (-1_000_000_000) 1_000_000_000));
          (2, map (fun f -> Float.round f) (float_range (-2e15) 2e15));
          (2, float);
        ])
  in
  let doc =
    QCheck.Gen.(
      sized_size (int_range 0 4)
      @@ fix (fun self depth ->
             let leaf =
               frequency
                 [
                   (2, map (fun f -> Json.Num f) num);
                   (1, map (fun s -> Json.Str s) json_string_gen);
                 ]
             in
             if depth = 0 then leaf
             else
               frequency
                 [
                   (2, leaf);
                   (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
                   ( 1,
                     map
                       (fun l -> Json.Obj l)
                       (list_size (int_range 0 4) (pair json_string_gen (self (depth - 1)))) );
                 ]))
  in
  QCheck.Test.make ~name:"Json.to_string == reference formatter" ~count:500
    (QCheck.make ~print:(Ref_json.to_string ~indent:false) doc)
    (fun d ->
      Json.to_string d = Ref_json.to_string d
      && Json.to_string ~indent:false d = Ref_json.to_string ~indent:false d)

(* Both parsers are total: a real document damaged by truncation, byte
   flips, deep [ / { nesting or stray escapes parses to [Ok] or to an
   [Error] inside the text, never to an exception. *)
type json_mutation =
  | Truncate of int
  | Flip of int * char
  | Nest of int * int * char  (* at, depth, opener *)
  | Escape of int * string  (* at, the bytes after a backslash *)

let mutate_json text m =
  let at k = k mod (String.length text + 1) in
  let insert k s =
    String.sub text 0 (at k) ^ s ^ String.sub text (at k) (String.length text - at k)
  in
  match m with
  | Truncate k -> String.sub text 0 (at k)
  | Flip (k, ch) ->
      if text = "" then text
      else
        let k = k mod String.length text in
        String.mapi (fun i c -> if i = k then ch else c) text
  | Nest (k, depth, opener) -> insert k (String.make depth opener)
  | Escape (k, tail) -> insert k ("\\" ^ tail)

(* The bracket nesting of a value: 0 for a scalar. *)
let rec json_depth = function
  | Json.Arr l -> 1 + List.fold_left (fun acc v -> max acc (json_depth v)) 0 l
  | Json.Obj l -> 1 + List.fold_left (fun acc (_, v) -> max acc (json_depth v)) 0 l
  | Json.Null | Json.Bool _ | Json.Num _ | Json.Str _ -> 0

let prop_json_parse_total =
  let open QCheck.Gen in
  let str =
    string_size ~gen:(oneofl [ 'a'; '"'; '\\'; '\n'; '\t'; '\001'; '\xe9'; ' ' ]) (int_range 0 6)
  in
  let doc =
    sized_size (int_range 0 4)
    @@ fix (fun self depth ->
           let leaf =
             oneof
               [
                 return Json.Null;
                 map (fun b -> Json.Bool b) bool;
                 map (fun f -> Json.Num f) (oneof [ float; map float_of_int small_signed_int ]);
                 map (fun s -> Json.Str s) str;
               ]
           in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair str (self (depth - 1)))) );
               ])
  in
  let pos = int_bound 10_000 in
  let mutation =
    frequency
      [
        (3, map (fun k -> Truncate k) pos);
        ( 3,
          map2
            (fun k c -> Flip (k, c))
            pos
            (oneofl [ '['; ']'; '{'; '}'; '"'; '\\'; ','; ':'; 'u'; '\000'; '\xff' ]) );
        (1, map3 (fun k d c -> Nest (k, d, c)) pos (int_range 1 20_000) (oneofl [ '['; '{' ]));
        ( 1,
          map3
            (fun k d c -> Nest (k, d, c))
            pos
            (oneof
               [ int_range (Json.max_depth - 2) (Json.max_depth + 2); int_range 20_000 200_000 ])
            (oneofl [ '['; '{' ]) );
        ( 2,
          map2
            (fun k t -> Escape (k, t))
            pos
            (oneofl [ ""; "u"; "u12"; "uZZZZ"; "u-123"; "u_1_2"; "uFFFF"; "x"; "\""; "\\" ]) );
      ]
  in
  let input =
    let* d = doc and* indent = bool and* ms = list_size (int_range 1 3) mutation in
    return (List.fold_left mutate_json (Json.to_string ~indent d) ms)
  in
  QCheck.Test.make ~name:"Json.parse and parse_strict never raise" ~count:500
    (QCheck.make ~print:(Printf.sprintf "%S") input)
    (fun text ->
      (match Json.parse text with Ok _ | Error _ -> ());
      match Json.parse_strict text with
      | Ok v -> json_depth v <= Json.max_depth
      | Error e -> e.Json.pe_offset >= 0 && e.Json.pe_offset <= String.length text)

(* The run-scanning parser against the character-by-character one
   ({!Ref_json.parse_strict}): documents full of escaped strings, then
   damaged so that literals end early, escapes are cut short or bad,
   and [\u] escapes carry non-hex digits.  Values, error messages and
   error offsets must all agree. *)
let prop_json_parse_matches_reference =
  let open QCheck.Gen in
  let doc =
    sized_size (int_range 0 3)
    @@ fix (fun self depth ->
           let leaf = map (fun s -> Json.Str s) json_string_gen in
           if depth = 0 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_range 0 4) (self (depth - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair json_string_gen (self (depth - 1)))) );
               ])
  in
  let pos = int_bound 10_000 in
  let mutation =
    frequency
      [
        (3, map (fun k -> Truncate k) pos);
        ( 3,
          map2
            (fun k t -> Escape (k, t))
            pos
            (oneofl
               [ ""; "u"; "u1"; "u12"; "u123"; "uZZZZ"; "u-123"; "u_1_2"; "u1_2_"; "u00e9";
                 "uFFFF"; "u0000"; "x"; "\""; "\\"; "/"; "b"; "f"; "n" ]) );
        (1, map2 (fun k c -> Flip (k, c)) pos (oneofl [ '"'; '\\'; 'u'; '\000'; '\xff' ]));
      ]
  in
  let input =
    let* d = doc and* indent = bool and* ms = list_size (int_range 0 3) mutation in
    return (List.fold_left mutate_json (Json.to_string ~indent d) ms)
  in
  QCheck.Test.make ~name:"Json.parse_strict == character-by-character reference" ~count:1000
    (QCheck.make ~print:(Printf.sprintf "%S") input)
    (fun text -> compare (Json.parse_strict text) (Ref_json.parse_strict text) = 0)

(* Nesting beyond [Json.max_depth] is an error at the first bracket too
   deep, whatever mix of arrays and objects leads there; at the limit
   the document still parses. *)
let test_json_depth_limit () =
  let nest d = String.make d '[' ^ String.make d ']' in
  (match Json.parse_strict (nest Json.max_depth) with
  | Ok v -> checkb "at the limit" true (json_depth v = Json.max_depth)
  | Error e ->
      Alcotest.failf "depth %d rejected: %s" Json.max_depth (Json.parse_error_to_string e));
  let too_deep label text offset =
    match Json.parse_strict text with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e ->
        Alcotest.(check string) (label ^ ": message") "nesting too deep" e.Json.pe_msg;
        Alcotest.(check int) (label ^ ": offset") offset e.Json.pe_offset
  in
  too_deep "one past" (nest (Json.max_depth + 1)) Json.max_depth;
  too_deep "100k unclosed" (String.make 100_000 '[') Json.max_depth;
  let field = "{\"k\": " in
  let b = Buffer.create 4096 in
  for i = 1 to Json.max_depth + 5 do
    Buffer.add_string b (if i mod 2 = 0 then field else " [ ")
  done;
  (* odd levels open with " [ " (bracket at offset 1), even ones with
     field (bracket at offset 0) *)
  let lengths i = if i mod 2 = 0 then String.length field else 3 in
  let offset = ref 0 in
  for i = 1 to Json.max_depth do
    offset := !offset + lengths i
  done;
  let first = if (Json.max_depth + 1) mod 2 = 0 then 0 else 1 in
  too_deep "mixed" (Buffer.contents b) (!offset + first)

let tests =
  [
    ( "util.json",
      [
        Alcotest.test_case "round trip" `Quick test_json_roundtrip;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
        QCheck_alcotest.to_alcotest prop_json_matches_reference;
        QCheck_alcotest.to_alcotest prop_json_parse_total;
        QCheck_alcotest.to_alcotest prop_json_parse_matches_reference;
        Alcotest.test_case "nesting depth limit" `Quick test_json_depth_limit;
      ] );
    ( "util.heap",
      [
        Alcotest.test_case "empty" `Quick test_heap_empty;
        Alcotest.test_case "ordering" `Quick test_heap_ordering;
        Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "remove" `Quick test_heap_remove;
        Alcotest.test_case "remove popped" `Quick test_heap_remove_popped;
        Alcotest.test_case "key_of" `Quick test_heap_key_of;
        QCheck_alcotest.to_alcotest prop_heap_matches_sorted;
      ] );
    ( "util.approx",
      [
        Alcotest.test_case "clamp" `Quick test_approx_clamp;
        Alcotest.test_case "finite" `Quick test_approx_finite;
      ] );
    ( "util.prng",
      [
        Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
        Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
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
