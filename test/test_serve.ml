(* The serve stack: protocol codecs, the compiled-circuit LRU, the
   resumable-session facade, and the server dispatch loop.

   The load-bearing property is bit-identity: a session advanced in
   arbitrary steps must produce float-for-float the same waveforms,
   edges, statistics and end time as a one-shot run of the same spec —
   that is what makes interactive stepping trustworthy. *)

module Json = Halotis_util.Json
module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Hnl = Halotis_netlist.Hnl
module Waveform = Halotis_wave.Waveform
module Transition = Halotis_wave.Transition
module Digital = Halotis_wave.Digital
module Stimfile = Halotis_stim.Stimfile
module Drive = Halotis_engine.Drive
module Sim = Halotis_engine.Sim
module Stats = Halotis_engine.Stats
module Compiled = Halotis_engine.Compiled
module Budget = Halotis_guard.Budget
module Stop = Halotis_guard.Stop
module Prng = Halotis_util.Prng
module Protocol = Halotis_serve.Protocol
module Circuit_cache = Halotis_serve.Circuit_cache
module Server = Halotis_serve.Server

let tech = Halotis_tech.Default_lib.tech
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Protocol round-trip                                                *)
(* ------------------------------------------------------------------ *)

(* Grid floats (multiples of 0.25): exactly representable and printed
   exactly by the emitter's %.12g, so the same generator also drives
   the full wire round-trip below. *)
let grid_float = QCheck.Gen.map (fun n -> float_of_int n *. 0.25) QCheck.Gen.(int_range 0 400_000)
let name_gen = QCheck.Gen.oneofl [ "a"; "b0"; "n_17"; "vm_3_cout"; "clk" ]

let request_gen : Protocol.request QCheck.Gen.t =
  let open QCheck.Gen in
  let opt g = oneof [ return None; map Option.some g ] in
  oneof
    [
      map (fun v -> Protocol.Hello v) (int_range 0 9);
      ( opt (oneofl [ "c17.hnl"; "ring.hnl" ]) >>= fun path ->
        opt name_gen >>= fun stim ->
        opt grid_float >>= fun t_stop ->
        opt (int_range 1 1_000_000) >>= fun max_events ->
        opt (int_range 1 1_000_000) >>= fun max_transitions ->
        opt bool >>= fun watchdog ->
        oneofl [ "ddm"; "cdm"; "classic" ] >>= fun engine ->
        return
          (Protocol.Load
             {
               Protocol.ld_circuit =
                 (match path with
                 | Some p -> Protocol.Path p
                 | None -> Protocol.Inline "module m\ninput a\nend");
               ld_engine = engine;
               ld_stim = stim;
               ld_t_stop = t_stop;
               ld_max_events = max_events;
               ld_max_transitions = max_transitions;
               ld_watchdog = watchdog;
             }) );
      ( int_range 1 50 >>= fun s ->
        name_gen >>= fun signal ->
        grid_float >>= fun at ->
        bool >>= fun level ->
        opt grid_float >>= fun slope ->
        return
          (Protocol.Set_input
             { si_session = s; si_signal = signal; si_at = at; si_level = level; si_slope = slope })
      );
      ( int_range 1 50 >>= fun s ->
        grid_float >>= fun t ->
        bool >>= fun abs ->
        return
          (Protocol.Advance
             { ad_session = s; ad_upto = (if abs then Protocol.Upto t else Protocol.Dt t) }) );
      ( int_range 1 50 >>= fun s ->
        oneof
          [
            map (fun o -> Protocol.Q_edges o) (opt name_gen);
            map (fun n -> Protocol.Q_waveform n) name_gen;
            map (fun n -> Protocol.Q_offenders n) (int_range 1 20);
            return Protocol.Q_stats;
          ]
        >>= fun q -> return (Protocol.Query { qu_session = s; qu_query = q }) );
      ( int_range 1 50 >>= fun s ->
        name_gen >>= fun signal ->
        grid_float >>= fun at ->
        grid_float >>= fun width ->
        opt grid_float >>= fun slope ->
        bool >>= fun up ->
        return
          (Protocol.Inject
             {
               in_session = s;
               in_signal = signal;
               in_at = at;
               in_width = width +. 0.25;
               in_slope = slope;
               in_up = up;
             }) );
      map (fun s -> Protocol.Close s) (int_range 1 50);
      return Protocol.Cache_stats;
      return Protocol.Shutdown;
    ]

let request_print r = Protocol.request_to_line ~id:0 r
let request_arb = QCheck.make ~print:request_print request_gen

let prop_request_roundtrip =
  QCheck.Test.make ~name:"protocol request round-trip (json level)" ~count:500 request_arb
    (fun r ->
      (* the request object alone, without the framing's "id" *)
      match Json.parse (Protocol.request_to_line ~id:7 r) with
      | Ok (Json.Obj (("id", _) :: fields)) -> Protocol.request_of_json (Json.Obj fields) = Ok r
      | _ -> false)

let prop_request_wire_roundtrip =
  QCheck.Test.make ~name:"protocol request round-trip (wire level)" ~count:500 request_arb
    (fun r ->
      match Json.parse (Protocol.request_to_line ~id:7 r) with
      | Error _ -> false
      | Ok j -> Protocol.request_of_json j = Ok r)

let response_gen =
  let open QCheck.Gen in
  oneof
    [
      ( int_range 1 99 >>= fun id ->
        grid_float >>= fun v -> return (Protocol.ok ~id (Json.Obj [ ("x", Json.Num v) ])) );
      ( oneof [ return None; map Option.some (int_range 1 99) ] >>= fun id ->
        oneofl [ "parse"; "protocol"; "unknown-session" ] >>= fun code ->
        return (Protocol.err ?id ~code "boom") );
    ]

let prop_response_wire_roundtrip =
  QCheck.Test.make ~name:"protocol response round-trip (wire level)" ~count:300
    (QCheck.make
       ~print:(fun r -> Protocol.response_to_line r)
       response_gen)
    (fun r ->
      match Json.parse (Protocol.response_to_line r) with
      | Error _ -> false
      | Ok j -> Protocol.response_of_json j = Ok r)

(* ------------------------------------------------------------------ *)
(* Stepped advance == one-shot (exact)                                *)
(* ------------------------------------------------------------------ *)

let workload ~gates ~seed =
  let c = G.random_combinational ~gates ~inputs:5 ~seed () in
  let rng = Prng.create ~seed:(seed * 7 + 1) in
  let drives =
    List.map
      (fun s ->
        let changes =
          List.init 5 (fun k ->
              (300. *. float_of_int (k + 1) +. Prng.float rng ~bound:120., Prng.bool rng))
        in
        ( s,
          Drive.of_levels
            ~slope:(20. +. Prng.float rng ~bound:40.)
            ~initial:(Prng.bool rng) changes ))
      (N.primary_inputs c)
  in
  (c, drives)

let check_iddm_equal label (a : Halotis_engine.Iddm.result) (b : Halotis_engine.Iddm.result) =
  let sa = a.Halotis_engine.Iddm.stats and sb = b.Halotis_engine.Iddm.stats in
  let field name fa fb =
    if fa <> fb then Alcotest.failf "%s: %s %d <> %d" label name fa fb
  in
  field "events_scheduled" sa.Stats.events_scheduled sb.Stats.events_scheduled;
  field "events_processed" sa.Stats.events_processed sb.Stats.events_processed;
  field "transitions_emitted" sa.Stats.transitions_emitted sb.Stats.transitions_emitted;
  field "transitions_annulled" sa.Stats.transitions_annulled sb.Stats.transitions_annulled;
  Array.iteri
    (fun sid wa ->
      let wb = b.Halotis_engine.Iddm.waveforms.(sid) in
      if Waveform.segment_count wa <> Waveform.segment_count wb then
        Alcotest.failf "%s: signal %d segment count %d <> %d" label sid
          (Waveform.segment_count wa) (Waveform.segment_count wb);
      for i = 0 to Waveform.segment_count wa - 1 do
        let ta = (Waveform.get_segment wa i).Waveform.transition in
        let tb = (Waveform.get_segment wb i).Waveform.transition in
        if
          ta.Transition.start <> tb.Transition.start
          || ta.Transition.slope_time <> tb.Transition.slope_time
          || (Waveform.get_segment wa i).Waveform.v_start
             <> (Waveform.get_segment wb i).Waveform.v_start
        then Alcotest.failf "%s: signal %d segment %d differs" label sid i
      done)
    a.Halotis_engine.Iddm.waveforms

let stepped_case_gen =
  QCheck.make
    ~print:(fun (gates, seed, engine, cuts) ->
      Printf.sprintf "gates=%d seed=%d engine=%s cuts=%d" gates seed
        (Sim.engine_to_string engine) cuts)
    QCheck.Gen.(
      (fun gates seed engine cuts -> (gates, seed, engine, cuts))
      <$> int_range 5 40 <*> int_range 0 10_000
      <*> oneofl [ Sim.Ddm; Sim.Cdm; Sim.Classic_inertial ]
      <*> int_range 1 9)

(* The engine-independent view: every signal's edges and every counter. *)
let check_common_equal label (a : Sim.result) (b : Sim.result) =
  if Sim.edges a <> Sim.edges b then Alcotest.failf "%s: edges differ" label;
  if Sim.initial_levels a <> Sim.initial_levels b then
    Alcotest.failf "%s: initial levels differ" label;
  if Stats.to_json a.Sim.rs_stats <> Stats.to_json b.Sim.rs_stats then
    Alcotest.failf "%s: statistics differ" label

let prop_stepped_equals_oneshot =
  QCheck.Test.make ~name:"advance in steps == one-shot run (exact)" ~count:90
    stepped_case_gen (fun (gates, seed, engine, cuts) ->
      let c, drives = workload ~gates ~seed in
      let spec = Sim.spec ~drives ~tech c in
      let oneshot = Sim.run engine spec in
      let sess = Sim.Session.start engine spec in
      let rng = Prng.create ~seed:(seed * 13 + 3) in
      let instants =
        List.sort compare (List.init cuts (fun _ -> Prng.float rng ~bound:2500.))
      in
      List.iter (fun t -> ignore (Sim.Session.advance sess ~upto:t)) instants;
      let stepped = Sim.Session.advance sess ~upto:infinity in
      let label =
        Printf.sprintf "gates=%d seed=%d engine=%s" gates seed (Sim.engine_to_string engine)
      in
      check_common_equal label oneshot stepped;
      (match (oneshot.Sim.rs_raw, stepped.Sim.rs_raw) with
      | Sim.Iddm_result a, Sim.Iddm_result b -> check_iddm_equal label a b
      | Sim.Classic_result a, Sim.Classic_result b ->
          if a.Halotis_engine.Classic.final_levels <> b.Halotis_engine.Classic.final_levels then
            Alcotest.failf "%s: final levels differ" label
      | _ -> Alcotest.failf "%s: results of different engines" label);
      if oneshot.Sim.rs_end_time <> stepped.Sim.rs_end_time then
        Alcotest.failf "%s: end_time %g <> %g" label oneshot.Sim.rs_end_time
          stepped.Sim.rs_end_time;
      oneshot.Sim.rs_stopped_by = stepped.Sim.rs_stopped_by)

(* ------------------------------------------------------------------ *)
(* Transition cap                                                     *)
(* ------------------------------------------------------------------ *)

let build_root = Filename.concat (Filename.dirname Sys.executable_name) ".."

let data f =
  Filename.concat build_root (Filename.concat "examples" (Filename.concat "data" f))

let fixture_spec ~circuit ~stim ?budget ?watchdog () =
  let c =
    match Halotis_netlist.Circuit_file.parse_file (data circuit) with
    | Ok c -> c
    | Error _ -> Alcotest.failf "%s did not parse" circuit
  in
  let sf =
    match Stimfile.parse_file (data stim) with
    | Ok s -> s
    | Error _ -> Alcotest.failf "%s did not parse" stim
  in
  let drives = match Stimfile.bind sf c with Ok d -> d | Error m -> Alcotest.fail m in
  Sim.spec ~drives ?budget ?watchdog ~tech c

let check_capped label k (r : Sim.result) =
  checkb (label ^ " stopped by transition cap") true
    (r.Sim.rs_stopped_by = Stop.Transition_cap k);
  checki (label ^ " emitted exactly k") k r.Sim.rs_stats.Stats.transitions_emitted;
  checkb (label ^ " truncated") false (Stop.completed r.Sim.rs_stopped_by)

let test_transition_cap () =
  (* The free-running ring emits forever under CDM and classic (no
     degradation), so the cap must stop it at exactly k committed
     transitions; under DDM the circulating pulse attenuates away, so
     the DDM case caps a plain c17 run with a cap below its natural
     transition count instead. *)
  let k = 64 in
  let ring = fixture_spec ~circuit:"ring.hnl" ~stim:"ring.hsv" in
  List.iter
    (fun engine ->
      let budget = { Budget.unlimited with Budget.max_transitions = Some k } in
      let r = Sim.run engine (ring ~budget ()) in
      check_capped (Sim.engine_to_string engine) k r)
    [ Sim.Cdm; Sim.Classic_inertial ];
  let c17 = fixture_spec ~circuit:"c17.hnl" ~stim:"c17_walk.hsv" in
  let budget = { Budget.unlimited with Budget.max_transitions = Some 3 } in
  check_capped "ddm" 3 (Sim.run Sim.Ddm (c17 ~budget ()))

let test_transition_cap_stop_meta () =
  let s = Stop.Transition_cap 5 in
  checks "to_string" "transition-cap(5)" (Stop.to_string s);
  checki "exit_code" 3 (Stop.exit_code s);
  checkb "not completed" false (Stop.completed s)

(* ------------------------------------------------------------------ *)
(* Circuit cache                                                      *)
(* ------------------------------------------------------------------ *)

let tiny_compiled source =
  match Hnl.parse_string source with
  | Ok c -> Compiled.compile tech c
  | Error _ -> Alcotest.fail "tiny circuit did not parse"

let test_cache_lru () =
  let cache = Circuit_cache.create ~capacity:2 in
  let srcs =
    Array.map
      (fun name ->
        Printf.sprintf "circuit %s\ninput x y\noutput o\ngate g nand2 o x y\nend" name)
      [| "a"; "b"; "c" |]
  in
  let load i =
    Circuit_cache.find_or_compile cache
      ~key:(Circuit_cache.key_of_source srcs.(i))
      ~compile:(fun () -> tiny_compiled srcs.(i))
  in
  let _, hit0 = load 0 in
  let _, hit0' = load 0 in
  checkb "first load misses" false hit0;
  checkb "second load hits" true hit0';
  let _, _ = load 1 in
  (* full at capacity 2; a's stamp is older than b's, so c evicts a *)
  let _, _ = load 2 in
  checki "one eviction" 1 (Circuit_cache.evictions cache);
  checkb "two entries" true
    (Json.member "entries" (Circuit_cache.to_json cache) = Some (Json.Num 2.));
  let _, hit0'' = load 0 in
  checkb "evicted entry misses again" false hit0'';
  checki "hits" 1 (Circuit_cache.hits cache);
  checki "misses" 4 (Circuit_cache.misses cache);
  (* reloading a evicted b (c was newer); b misses now *)
  let _, hitb = load 1 in
  checkb "LRU victim was b" false hitb

let test_cache_key () =
  checkb "same source, same key" true
    (Circuit_cache.key_of_source "abc" = Circuit_cache.key_of_source "abc");
  checkb "different source, different key" false
    (Circuit_cache.key_of_source "abc" = Circuit_cache.key_of_source "abd")

(* ------------------------------------------------------------------ *)
(* Server dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let mk_conn () =
  let cfg = Server.default_config () in
  let server = Server.create cfg in
  (server, Server.connect server)

let send conn ~id line =
  match Json.parse (Server.handle_line conn line) with
  | Error m -> Alcotest.failf "unparseable response: %s" m
  | Ok j -> (
      (match Json.member "id" j with
      | Some (Json.Num f) -> checki "response id" id (int_of_float f)
      | _ -> Alcotest.fail "response without id");
      match (Json.member "ok" j, Json.member "result" j, Json.member "error" j) with
      | Some (Json.Bool true), Some r, _ -> Ok r
      | Some (Json.Bool false), _, Some e -> (
          match Json.member "code" e with
          | Some (Json.Str c) -> Error c
          | _ -> Alcotest.fail "error without code")
      | _ -> Alcotest.fail "malformed response")

let req ~id fields =
  Json.to_string ~indent:false
    (Json.Obj (("id", Json.Num (float_of_int id)) :: fields))

let hello ~id = req ~id [ ("op", Json.Str "hello"); ("version", Json.Num 1.) ]

let load_c17 ~id =
  req ~id
    [
      ("op", Json.Str "load");
      ("circuit", Json.Str (data "c17.hnl"));
      ("engine", Json.Str "ddm");
      ("stim", Json.Str (data "c17_walk.hsv"));
    ]

let expect_ok label = function
  | Ok r -> r
  | Error c -> Alcotest.failf "%s: unexpected error %s" label c

let expect_err label code = function
  | Ok _ -> Alcotest.failf "%s: expected error %s, got ok" label code
  | Error c -> checks label code c

let num_field name j =
  match Json.member name j with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "missing numeric field %s" name

let test_server_protocol_gate () =
  let _, conn = mk_conn () in
  (* before hello, only hello passes (the rejection still consumes id 1) *)
  expect_err "pre-hello load" "protocol" (send conn ~id:1 (load_c17 ~id:1));
  ignore (expect_ok "hello" (send conn ~id:2 (hello ~id:2)));
  (* an out-of-order id is rejected without consuming the expected id *)
  expect_err "id skip" "protocol" (send conn ~id:7 (load_c17 ~id:7));
  (* parse failure: null id *)
  (match Json.parse (Server.handle_line conn "{nope") with
  | Ok j -> checkb "parse error has null id" true (Json.member "id" j = Some Json.Null)
  | Error m -> Alcotest.failf "unparseable parse-error response: %s" m);
  (* unknown session *)
  expect_err "unknown session" "unknown-session"
    (send conn ~id:3 (req ~id:3 [ ("op", Json.Str "advance"); ("session", Json.Num 9.); ("upto", Json.Num 100.) ]));
  (* every engine opens a session *)
  ignore
    (expect_ok "classic load"
       (send conn ~id:4
          (req ~id:4
             [
               ("op", Json.Str "load");
               ("circuit", Json.Str (data "c17.hnl"));
               ("engine", Json.Str "classic");
             ])));
  (* past-time stimulus rejected with its Diag code *)
  let s =
    int_of_float (num_field "session" (expect_ok "load" (send conn ~id:5 (load_c17 ~id:5))))
  in
  ignore
    (expect_ok "advance"
       (send conn ~id:6
          (req ~id:6
             [ ("op", Json.Str "advance"); ("session", Json.Num (float_of_int s)); ("upto", Json.Num 5000.) ])));
  expect_err "past-time set_input" "past-time"
    (send conn ~id:7
       (req ~id:7
          [
            ("op", Json.Str "set_input");
            ("session", Json.Num (float_of_int s));
            ("signal", Json.Str "G1");
            ("at", Json.Num 100.);
            ("level", Json.Bool false);
          ]));
  expect_err "set_input on a gate output" "not-an-input"
    (send conn ~id:8
       (req ~id:8
          [
            ("op", Json.Str "set_input");
            ("session", Json.Num (float_of_int s));
            ("signal", Json.Str "G22");
            ("at", Json.Num 6000.);
            ("level", Json.Bool true);
          ]));
  expect_err "unknown signal" "unknown-signal"
    (send conn ~id:9
       (req ~id:9
          [
            ("op", Json.Str "query");
            ("session", Json.Num (float_of_int s));
            ("what", Json.Str "waveform");
            ("signal", Json.Str "nope");
          ]))

(* what a clean (uninjected) one-shot of the c17 walk emits under the
   server's default session guardrails *)
let clean_c17_spec () =
  let d = Server.default_config () in
  fixture_spec ~circuit:"c17.hnl" ~stim:"c17_walk.hsv"
    ~budget:
      {
        Budget.unlimited with
        Budget.max_events = d.Server.cf_max_events;
        max_transitions = d.Server.cf_max_transitions;
      }
    ~watchdog:(Halotis_guard.Watchdog.config ())
    ()

let test_two_session_isolation () =
  let server, conn = mk_conn () in
  ignore (expect_ok "hello" (send conn ~id:1 (hello ~id:1)));
  let s1 = expect_ok "load 1" (send conn ~id:2 (load_c17 ~id:2)) in
  let s2 = expect_ok "load 2" (send conn ~id:3 (load_c17 ~id:3)) in
  checki "first session id" 1 (int_of_float (num_field "session" s1));
  checki "second session id" 2 (int_of_float (num_field "session" s2));
  checki "second load hits the cache" 1 (Circuit_cache.hits (Server.cache server));
  (* poke session 2's victim; session 1 must see none of it *)
  ignore
    (expect_ok "inject s2"
       (send conn ~id:4
          (req ~id:4
             [
               ("op", Json.Str "inject");
               ("session", Json.Num 2.);
               ("signal", Json.Str "G10");
               ("at", Json.Num 1500.);
               ("width", Json.Num 400.);
             ])));
  let adv sid id =
    expect_ok "advance"
      (send conn ~id
         (req ~id
            [ ("op", Json.Str "advance"); ("session", Json.Num (float_of_int sid)); ("upto", Json.Num 1.0e7) ]))
  in
  let r1 = adv 1 5 in
  let r2 = adv 2 6 in
  (* the splice shows up as extra processed events in session 2 only
     (its pulse is electrically masked downstream, so transition counts
     can tie) *)
  checkb "injected session processes more events" true
    (num_field "events" r2 > num_field "events" r1);
  let wf sid id =
    Json.to_string ~indent:false
      (expect_ok "waveform"
         (send conn ~id
            (req ~id
               [
                 ("op", Json.Str "query");
                 ("session", Json.Num (float_of_int sid));
                 ("what", Json.Str "waveform");
                 ("signal", Json.Str "G10");
               ])))
  in
  let wf1 = wf 1 7 in
  let wf2 = wf 2 8 in
  checkb "victim waveforms diverge" false (wf1 = wf2);
  (* the uninjected session matches a clean one-shot run exactly *)
  let clean = Sim.run Sim.Ddm (clean_c17_spec ()) in
  checki "clean transitions" clean.Sim.rs_stats.Stats.transitions_emitted
    (int_of_float (num_field "transitions" r1));
  checki "clean events" clean.Sim.rs_stats.Stats.events_processed
    (int_of_float (num_field "events" r1));
  (* the wire rounds floats through %.12g, so compare renderings *)
  checks "clean end_time"
    (Json.to_string ~indent:false (Json.Num clean.Sim.rs_end_time))
    (Json.to_string ~indent:false (Json.Num (num_field "end_time" r1)))

(* A c17_walk.hsv session of [engine] on the wire, loaded over [conn]
   with request ids from [id]; returns the session and a [set_input] /
   [advance] / [query edges] trio bound to it. *)
let walk_session conn ~id engine =
  let s =
    expect_ok "load"
      (send conn ~id
         (req ~id
            [
              ("op", Json.Str "load");
              ("circuit", Json.Str (data "c17.hnl"));
              ("engine", Json.Str engine);
              ("stim", Json.Str (data "c17_walk.hsv"));
            ]))
  in
  checks "engine echoed" engine
    (match Json.member "engine" s with Some (Json.Str e) -> e | _ -> "");
  let session = Json.Num (num_field "session" s) in
  let set_input ~id signal ~at ~level =
    ignore
      (expect_ok "set_input"
         (send conn ~id
            (req ~id
               [
                 ("op", Json.Str "set_input");
                 ("session", session);
                 ("signal", Json.Str signal);
                 ("at", Json.Num at);
                 ("level", Json.Bool level);
               ])))
  in
  let advance ~id upto =
    expect_ok "advance"
      (send conn ~id
         (req ~id [ ("op", Json.Str "advance"); ("session", session); ("upto", Json.Num upto) ]))
  in
  let edges ~id =
    expect_ok "query edges"
      (send conn ~id
         (req ~id [ ("op", Json.Str "query"); ("session", session); ("what", Json.Str "edges") ]))
  in
  (session, set_input, advance, edges)

(* The one-shot run of c17_walk.hsv with the named inputs' drives
   replaced. *)
let walk_oneshot engine replaced =
  let spec = clean_c17_spec () in
  let c = spec.Sim.sp_circuit in
  let replaced =
    List.map
      (fun (name, d) ->
        match N.find_signal c name with
        | Some sid -> (sid, d)
        | None -> Alcotest.failf "c17 has no %s" name)
      replaced
  in
  let drives =
    List.map
      (fun (sid, d) -> match List.assoc_opt sid replaced with Some d' -> (sid, d') | None -> (sid, d))
      spec.Sim.sp_drives
  in
  Sim.run engine { spec with Sim.sp_drives = drives }

(* A [query edges] reply as the server renders it for [r]. *)
let edges_reply (r : Sim.result) =
  let polarity = function Transition.Rising -> "rise" | Transition.Falling -> "fall" in
  Json.Obj
    [
      ( "edges",
        Json.Arr
          (List.map
             (fun (name, es) ->
               Json.Obj
                 [
                   ("signal", Json.Str name);
                   ( "edges",
                     Json.Arr
                       (List.map
                          (fun (e : Digital.edge) ->
                            Json.Obj
                              [
                                ("at", Json.Num e.Digital.at);
                                ("polarity", Json.Str (polarity e.Digital.polarity));
                              ])
                          es) );
                 ])
             (Sim.output_edges r)) );
    ]

(* the wire rounds floats through %.12g, so compare renderings *)
let check_edges_reply label (r : Sim.result) reply =
  checks label (Json.to_string ~indent:false (edges_reply r)) (Json.to_string ~indent:false reply)

(* A classic session on the wire: load, live stimulus, advance, query.
   Its edges must be a one-shot classic run of the same drives, and a
   waveform query must be refused (the classic engine has none). *)
let test_classic_session () =
  let _, conn = mk_conn () in
  ignore (expect_ok "hello" (send conn ~id:1 (hello ~id:1)));
  let session, set_input, advance, edges = walk_session conn ~id:2 "classic" in
  set_input ~id:3 "G2" ~at:4000. ~level:false;
  ignore (advance ~id:4 5000.);
  set_input ~id:5 "G7" ~at:7000. ~level:false;
  let status = advance ~id:6 1.0e7 in
  let edges = edges ~id:7 in
  expect_err "classic waveform query" "bad-request"
    (send conn ~id:8
       (req ~id:8
          [
            ("op", Json.Str "query");
            ("session", session);
            ("what", Json.Str "waveform");
            ("signal", Json.Str "G22");
          ]));
  (* the same stimulus as one drive list, run one-shot *)
  let late at = Drive.of_levels ~slope:100. ~initial:true [ (at, false) ] in
  let oneshot =
    walk_oneshot Sim.Classic_inertial [ ("G2", late 4000.); ("G7", late 7000.) ]
  in
  checki "events" oneshot.Sim.rs_stats.Stats.events_processed
    (int_of_float (num_field "events" status));
  checki "transitions" oneshot.Sim.rs_stats.Stats.transitions_emitted
    (int_of_float (num_field "transitions" status));
  checkb "stimulus reached the outputs" true
    (List.exists (fun (_, es) -> es <> []) (Sim.output_edges oneshot));
  check_edges_reply "edges == one-shot classic run" oneshot edges

(* Live stimulus replaces an input's queued future on every engine.
   c17_walk.hsv drives G3 [1 0@6000 1@9000]; commanding G3 low at 7000
   must drop the stimulus rise at 9000, so each engine's session ends
   as a one-shot run whose G3 drive is [1 0@6000]. *)
let test_set_input_replaces_future () =
  let _, conn = mk_conn () in
  ignore (expect_ok "hello" (send conn ~id:1 (hello ~id:1)));
  let g3_low = ("G3", Drive.of_levels ~slope:100. ~initial:true [ (6000., false) ]) in
  List.iteri
    (fun k (engine, name) ->
      let id = 2 + (5 * k) in
      let _, set_input, advance, edges = walk_session conn ~id name in
      ignore (advance ~id:(id + 1) 6500.);
      set_input ~id:(id + 2) "G3" ~at:7000. ~level:false;
      ignore (advance ~id:(id + 3) 1.0e7);
      let reply = edges ~id:(id + 4) in
      let expected = walk_oneshot engine [ g3_low ] in
      (* non-vacuity: the dropped rise reaches the outputs *)
      checkb (name ^ ": the G3 rise matters") true
        (Sim.output_edges expected <> Sim.output_edges (walk_oneshot engine []));
      check_edges_reply (name ^ ": edges == one-shot run without the G3 rise") expected reply)
    [ (Sim.Classic_inertial, "classic"); (Sim.Ddm, "ddm") ]

(* ------------------------------------------------------------------ *)
(* Json hardening                                                     *)
(* ------------------------------------------------------------------ *)

let test_parse_strict () =
  (match Json.parse_strict "{\"a\": 1} garbage" with
  | Error e ->
      checkb "offset points at the garbage" true (e.Json.pe_offset >= 9);
      checkb "message says trailing" true
        (String.length e.Json.pe_msg > 0)
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  (match Json.parse_strict "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty input accepted");
  match Json.parse_strict "  [1, 2, 3]  " with
  | Ok (Json.Arr [ Json.Num 1.; Json.Num 2.; Json.Num 3. ]) -> ()
  | _ -> Alcotest.fail "valid input rejected"

(* A channel reader refills 4 KiB at a time: the 8191-byte first line's
   CRLF straddles the second refill boundary, and the 10 000-byte third
   line spans three refills. *)
let test_lines_reader () =
  let reader = Json.Lines.of_string "a\r\nb\n\nc-torn" in
  Alcotest.(check (list string)) "lines" [ "a"; "b"; "" ] (Json.Lines.to_list reader);
  checks "torn tail survives as leftover" "c-torn" (Json.Lines.leftover reader);
  let r2 = Json.Lines.of_string "x\ny\n" in
  Alcotest.(check (list string)) "clean tail" [ "x"; "y" ] (Json.Lines.to_list r2);
  checks "no leftover" "" (Json.Lines.leftover r2);
  let long = String.init 8191 (fun i -> Char.chr (Char.code 'a' + (i mod 26))) in
  let content = long ^ "\r\nshort\n" ^ String.make 10_000 'x' ^ "\ntail" in
  let path = Filename.temp_file "halotis_lines" ".txt" in
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content);
  let lines, leftover =
    In_channel.with_open_bin path (fun ic ->
        let r = Json.Lines.of_channel ic in
        let lines = Json.Lines.to_list r in
        (lines, Json.Lines.leftover r))
  in
  Sys.remove path;
  let expected = [ long; "short"; String.make 10_000 'x' ] in
  checkb "long lines from a channel" true (lines = expected);
  checks "unterminated tail from a channel" "tail" leftover;
  let r3 = Json.Lines.of_string content in
  checkb "long lines from a string" true (Json.Lines.to_list r3 = expected);
  checks "unterminated tail from a string" "tail" (Json.Lines.leftover r3)

(* --- hostile NDJSON: handle_line never raises ---

   Valid request lines of a session walk, damaged by truncation, byte
   flips or a garbage inline HNL source, go through [handle_line] on
   one connection.  Each must get exactly one JSON reply line (ok or
   error), and the next valid request on that connection must still
   succeed. *)

let inline_hnl = "circuit t\ninput a b\noutput y\ngate g1 nand2 y a b vt0=1.5\nend\n"

let load_inline source =
  Protocol.Load
    {
      Protocol.ld_circuit = Protocol.Inline source;
      ld_engine = "ddm";
      ld_stim = None;
      ld_t_stop = None;
      ld_max_events = Some 100_000;
      ld_max_transitions = None;
      ld_watchdog = None;
    }

let walk_requests =
  [|
    load_inline inline_hnl;
    Protocol.Set_input { si_session = 1; si_signal = "a"; si_at = 100.; si_level = true; si_slope = None };
    Protocol.Advance { ad_session = 1; ad_upto = Protocol.Dt 500. };
    Protocol.Query { qu_session = 1; qu_query = Protocol.Q_edges None };
    Protocol.Query { qu_session = 1; qu_query = Protocol.Q_waveform "y" };
    Protocol.Inject
      { in_session = 1; in_signal = "y"; in_at = 700.; in_width = 50.; in_slope = None; in_up = true };
    Protocol.Query { qu_session = 1; qu_query = Protocol.Q_stats };
    Protocol.Cache_stats;
    Protocol.Close 1;
  |]

(* One hostile line, given the id the connection expects next. *)
let hostile_gen =
  let open QCheck.Gen in
  let* base = int_bound (Array.length walk_requests - 1) and* how = int_range 0 2 in
  let* cut = nat and* flips = list_size (int_range 1 3) (pair nat (map Char.chr (int_bound 255))) in
  let* garbage =
    oneof
      [
        string_size ~gen:printable (int_range 0 120);
        map
          (fun (i, c) ->
            let b = Bytes.of_string inline_hnl in
            Bytes.set b (i mod Bytes.length b) c;
            Bytes.to_string b)
          (pair nat printable);
      ]
  in
  return (fun ~id ->
      let line = Protocol.request_to_line ~id walk_requests.(base) in
      match how with
      | 0 -> String.sub line 0 (cut mod (String.length line + 1))
      | 1 ->
          let b = Bytes.of_string line in
          List.iter (fun (i, c) -> Bytes.set b (i mod Bytes.length b) c) flips;
          Bytes.to_string b
      | _ -> Protocol.request_to_line ~id (load_inline garbage))

let prop_handle_line_never_raises =
  QCheck.Test.make ~name:"handle_line total on hostile lines" ~count:150
    (QCheck.make QCheck.Gen.(list_size (int_range 1 8) hostile_gen))
    (fun lines ->
      let _, conn = mk_conn () in
      let next = ref 1 in
      (* one reply line that parses, answering [id] when it carries one;
         the request consumed the expected id iff the reply echoes it *)
      let reply line =
        let out = Server.handle_line conn line in
        if String.contains out '\n' then QCheck.Test.fail_reportf "multi-line reply %S" out;
        match Json.parse_strict out with
        | Error _ -> QCheck.Test.fail_reportf "reply is not JSON: %S" out
        | Ok j ->
            (match Json.member "id" j with
            | Some (Json.Num f) when int_of_float f = !next -> incr next
            | _ -> ());
            Json.member "ok" j
      in
      let valid r =
        let id = !next in
        if reply (Protocol.request_to_line ~id r) <> Some (Json.Bool true) then
          QCheck.Test.fail_reportf "valid request %d failed after hostile input" id
      in
      valid (Protocol.Hello Protocol.version);
      List.iter
        (fun hostile ->
          let line = hostile ~id:!next in
          (match reply line with
          | Some (Json.Bool _) -> ()
          | _ -> QCheck.Test.fail_reportf "reply to %S has no ok flag" line);
          valid (load_inline inline_hnl);
          valid Protocol.Cache_stats)
        lines;
      true)

(* A line nested far past [Json.max_depth] gets one [parse] error reply
   (at the first bracket too deep) and leaves the connection usable. *)
let test_deep_nesting_line () =
  let _, conn = mk_conn () in
  ignore (expect_ok "hello" (send conn ~id:1 (hello ~id:1)));
  (match Json.parse_strict (Server.handle_line conn (String.make 100_000 '[')) with
  | Error e -> Alcotest.failf "reply is not JSON: %s" (Json.parse_error_to_string e)
  | Ok j -> (
      checkb "null id" true (Json.member "id" j = Some Json.Null);
      let field f = Option.bind (Json.member "error" j) (Json.member f) in
      checkb "parse code" true (field "code" = Some (Json.Str "parse"));
      checkb "message at the first bracket too deep" true
        (field "message"
        = Some (Json.Str (Printf.sprintf "nesting too deep at offset %d" Json.max_depth)))));
  ignore
    (expect_ok "next request"
       (send conn ~id:2 (Protocol.request_to_line ~id:2 (load_inline inline_hnl))))

(* ------------------------------------------------------------------ *)

let tests =
  [
    ( "serve",
      [
        QCheck_alcotest.to_alcotest prop_request_roundtrip;
        QCheck_alcotest.to_alcotest prop_request_wire_roundtrip;
        QCheck_alcotest.to_alcotest prop_response_wire_roundtrip;
        QCheck_alcotest.to_alcotest prop_stepped_equals_oneshot;
        QCheck_alcotest.to_alcotest prop_handle_line_never_raises;
        Alcotest.test_case "transition cap stops every engine at k" `Quick test_transition_cap;
        Alcotest.test_case "transition cap stop metadata" `Quick test_transition_cap_stop_meta;
        Alcotest.test_case "circuit cache LRU and counters" `Quick test_cache_lru;
        Alcotest.test_case "circuit cache keying" `Quick test_cache_key;
        Alcotest.test_case "server hello gate, ids, error codes" `Quick test_server_protocol_gate;
        Alcotest.test_case "two sessions are isolated" `Quick test_two_session_isolation;
        Alcotest.test_case "classic session == one-shot classic run" `Quick test_classic_session;
        Alcotest.test_case "set_input replaces the input's queued future" `Quick
          test_set_input_replaces_future;
        Alcotest.test_case "Json.parse_strict structured errors" `Quick test_parse_strict;
        Alcotest.test_case "Json.Lines newline reader" `Quick test_lines_reader;
        Alcotest.test_case "100k-deep line: parse error, connection lives" `Quick
          test_deep_nesting_line;
      ] );
  ]
