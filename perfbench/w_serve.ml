(* serve-mix: one closed-loop client drives Server.handle_line on a
   single connection, sending each request only after the previous reply.
   The seeded request script runs rounds of set_input / inject / advance
   writes and edges / stats / waveform / offenders queries over four
   sessions, each round ending with an inline load that cycles through
   more distinct generated circuits than the default cache capacity
   (hits, misses and evictions).
   The work is protocol decode, dispatch, session stepping, encode and
   the compiled-circuit cache; the kernel does little per request.

   The script is replayed in epochs, each against a fresh server: epochs
   at the default capacity give the headline numbers, epochs whose cache
   holds every circuit give the comparison path.  Every error reply is a
   failed request. *)

module N = Halotis_netlist.Netlist
module Json = Halotis_util.Json
module Prng = Halotis_util.Prng
module P = Halotis_serve.Protocol
module Server = Halotis_serve.Server
module Circuit_cache = Halotis_serve.Circuit_cache

type kind = Hello | Load | Set_input | Inject | Advance | Query | Close

let kind_name = function
  | Hello -> "hello"
  | Load -> "load"
  | Set_input -> "set_input"
  | Inject -> "inject"
  | Advance -> "advance"
  | Query -> "query"
  | Close -> "close"

(* constant span names: no allocation per traced request *)
let span_name = function
  | Hello -> "serve.hello"
  | Load -> "serve.load"
  | Set_input -> "serve.set_input"
  | Inject -> "serve.inject"
  | Advance -> "serve.advance"
  | Query -> "serve.query"
  | Close -> "serve.close"

type req = { kind : kind; line : string; session : int }

type circuit = { hnl : string; inputs : string array; nodes : string array }

(* open sessions, as in bench/exp_serve.ml *)
let sessions_open = 4

(* Draws from a seeded shuffle of [items], reshuffled when used up. *)
let deck rng items =
  let a = Array.of_list items and next = ref max_int in
  fun () ->
    if !next >= Array.length a then begin
      for i = Array.length a - 1 downto 1 do
        let j = Prng.int rng ~bound:(i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      next := 0
    end;
    incr next;
    a.(!next - 1)

(* The request script: a pure function of the seed and sizes.

   The mix is synthetic.  Its core is the round of bench/exp_serve.ml:
   every open session gets a set_input, an advance and a query, in that
   order.  Two things that experiment lacks are added, at shares chosen
   here rather than taken from any record of real traffic: in each round
   one session (seeded) gets an inject instead of its set_input, and the
   round ends by closing the oldest session and loading the next circuit
   of a seeded deck, so the cache sees hits, misses and evictions.  The
   query kind is drawn evenly from edges, stats, waveform and offenders.
   With four sessions a round is 14 requests: 3 set_input, 1 inject,
   4 advance, 4 query, 1 close and 1 load. *)
let script ~seed ~circuits ~requests =
  let rng = Prng.create ~seed in
  let next_circuit = deck rng (List.init (Array.length circuits) Fun.id) in
  let out = ref [] and next_id = ref 1 and next_session = ref 1 in
  let emit kind session req =
    out := { kind; line = P.request_to_line ~id:!next_id req; session } :: !out;
    incr next_id
  in
  let pick a = a.(Prng.int rng ~bound:(Array.length a)) in
  (* open sessions, oldest first: (id, circuit, stimulus cursor) *)
  let sessions = ref [] in
  let load k =
    let sid = !next_session in
    incr next_session;
    emit Load sid
      (P.Load
         {
           P.ld_circuit = P.Inline circuits.(k).hnl;
           ld_engine = "ddm";
           ld_stim = None;
           ld_t_stop = None;
           ld_max_events = None;
           ld_max_transitions = None;
           ld_watchdog = None;
         });
    sessions := !sessions @ [ (sid, k, ref 0.) ]
  in
  emit Hello 0 (P.Hello P.version);
  (* The first load is the cold one [setup_s] times: always the middle
     circuit size, so that the set-up cost does not follow the seed's
     pick of a small or a large circuit. *)
  load (Array.length circuits / 2);
  for _ = 2 to sessions_open do
    load (next_circuit ())
  done;
  while !next_id <= requests do
    let injected = Prng.int rng ~bound:sessions_open in
    List.iteri
      (fun i (sid, k, cursor) ->
        let c = circuits.(k) in
        let after gap = !cursor +. 50. +. Prng.float rng ~bound:gap in
        (if i = injected then begin
           let at = after 300. in
           cursor := at +. 250.;
           emit Inject sid
             (P.Inject
                {
                  in_session = sid;
                  in_signal = pick c.nodes;
                  in_at = at;
                  in_width = 150.;
                  in_slope = None;
                  in_up = Prng.bool rng;
                })
         end
         else
           let at = after 300. in
           cursor := at +. 100.;
           emit Set_input sid
             (P.Set_input
                {
                  si_session = sid;
                  si_signal = pick c.inputs;
                  si_at = at;
                  si_level = Prng.bool rng;
                  si_slope = None;
                }));
        let upto = after 1500. +. 150. in
        cursor := upto;
        emit Advance sid (P.Advance { ad_session = sid; ad_upto = P.Upto upto });
        let q =
          match Prng.int rng ~bound:4 with
          | 0 -> P.Q_edges None
          | 1 -> P.Q_stats
          | 2 -> P.Q_waveform (pick c.nodes)
          | _ -> P.Q_offenders 5
        in
        emit Query sid (P.Query { qu_session = sid; qu_query = q }))
      !sessions;
    let old, _, _ = List.hd !sessions in
    sessions := List.tl !sessions;
    emit Close old (P.Close old);
    load (next_circuit ())
  done;
  Array.of_list (List.rev !out)

type epoch = {
  setup : float;
  rate : float;  (** requests per second of [handle_line] time *)
  requests : int;
  errors : int;
  digest : string;
  hits : int;
  misses : int;
  evictions : int;
  adv_events : int;
}

(* Latency histograms (microseconds) of one cache capacity's epochs:
   every request, and per request kind, loads split by cache hit. *)
type lat = { all : Meas.hist; by_kind : (kind * bool, Meas.hist) Hashtbl.t }

let lat () = { all = Meas.hist (); by_kind = Hashtbl.create 8 }

let record lat kind hit us =
  Meas.add lat.all us;
  let h =
    match Hashtbl.find_opt lat.by_kind (kind, hit) with
    | Some h -> h
    | None ->
        let h = Meas.hist () in
        Hashtbl.replace lat.by_kind (kind, hit) h;
        h
  in
  Meas.add h us

let epoch ~capacity ~lat (reqs : req array) =
  Calib.tick ();
  let t0 = Meas.now () in
  let server =
    Trace.span "serve.create" (fun () ->
        Server.create { (Server.default_config ()) with Server.cf_cache_size = capacity })
  in
  let conn = Server.connect server in
  let setup_replies =
    Array.map
      (fun r -> Trace.span (span_name r.kind) (fun () -> Server.handle_line conn r.line))
      (Array.sub reqs 0 2)
  in
  let setup = Calib.scale (Meas.now () -. t0) in
  let h = ref (Digest.string (String.concat "\n" (Array.to_list setup_replies))) in
  let errors = ref 0 and adv = ref 0 and busy = ref 0. in
  let last_events = Hashtbl.create 8 in
  Array.iter
    (fun reply ->
      match Option.bind (Result.to_option (Json.parse reply)) (Json.member "result") with
      | Some _ -> ()
      | None -> incr errors)
    setup_replies;
  for i = 2 to Array.length reqs - 1 do
    let r = reqs.(i) in
    if !Trace.enabled then
      ignore
        (Trace.span "probe.decode" (fun () -> Result.bind (Json.parse r.line) P.request_of_json));
    let reply, dt =
      Calib.time (fun () -> Trace.span (span_name r.kind) (fun () -> Server.handle_line conn r.line))
    in
    busy := !busy +. dt;
    h := Digest.string (!h ^ reply);
    let parsed = Json.parse reply in
    let result = Option.bind (Result.to_option parsed) (Json.member "result") in
    if result = None then incr errors;
    let hit = Option.bind result (Json.member "cache") = Some (Json.Str "hit") in
    record lat r.kind hit (dt *. 1e6);
    (if r.kind = Advance then
       match Option.bind result (Json.member "events") with
       | Some (Json.Num e) ->
           let e = int_of_float e in
           let prev = Option.value ~default:0 (Hashtbl.find_opt last_events r.session) in
           adv := !adv + e - prev;
           Hashtbl.replace last_events r.session e
       | _ -> ());
    if !Trace.enabled then
      match Result.bind parsed P.response_of_json with
      | Ok resp -> ignore (Trace.span "probe.encode" (fun () -> P.response_to_line resp))
      | Error _ -> ()
  done;
  let cache = Server.cache server in
  let requests = Array.length reqs - 2 in
  {
    setup;
    rate = float_of_int requests /. !busy;
    requests;
    errors = !errors;
    digest = Digest.to_hex !h;
    hits = Circuit_cache.hits cache;
    misses = Circuit_cache.misses cache;
    evictions = Circuit_cache.evictions cache;
    adv_events = !adv;
  }

let run (ctx : Wl.ctx) =
  let ncircuits = 12 and inputs = 8 in
  let requests = if ctx.Wl.tiny then 200 else 1200 in
  let gates k = if ctx.Wl.tiny then 20 + (2 * k) else 60 + (10 * k) in
  let default_capacity = (Server.default_config ()).Server.cf_cache_size in
  let circuits =
    Array.init ncircuits (fun k ->
        let c =
          Gen.circuit ~name:(Printf.sprintf "serve%d" k) ~gates:(gates k) ~inputs
            ~seed:(Gen.derive ctx.Wl.seed (10 + k))
        in
        let names ids = Array.of_list (List.map (N.signal_name c) ids) in
        {
          hnl = Halotis_netlist.Hnl.to_string c;
          inputs = names (N.primary_inputs c);
          nodes =
            Array.map (fun (g : N.gate) -> N.signal_name c g.N.output) (N.gates c);
        })
  in
  let reqs = script ~seed:(Gen.derive ctx.Wl.seed 5) ~circuits ~requests in
  let epochs = Hashtbl.create 2 in
  let capacities = [ (default_capacity, lat ()); (ncircuits + 4, lat ()) ] in
  Wl.repeat_for ctx.Wl.seconds (fun _ ->
      List.iter
        (fun (capacity, lat) ->
          let e = epoch ~capacity ~lat reqs in
          Hashtbl.replace epochs capacity
            (e :: Option.value ~default:[] (Hashtbl.find_opt epochs capacity)))
        capacities);
  let lat = List.assoc default_capacity capacities in
  let all = List.concat_map (fun (cap, _) -> Hashtbl.find epochs cap) capacities in
  let default = Hashtbl.find epochs default_capacity in
  let fits = Hashtbl.find epochs (ncircuits + 4) in
  (* every epoch of one capacity replays the same script: same replies *)
  let mismatched es =
    match es with [] -> 0 | e0 :: _ -> List.length (List.filter (fun e -> e.digest <> e0.digest) es)
  in
  (* median latency of one request kind (loads: one cache outcome), default cache *)
  let p50_of kind hit =
    Option.fold ~none:Float.nan
      ~some:(fun h -> Meas.hist_quantile h 0.5)
      (Hashtbl.find_opt lat.by_kind (kind, hit))
  in
  let e0 = List.hd default in
  let count kind = Array.fold_left (fun acc r -> if r.kind = kind then acc + 1 else acc) 0 reqs in
  {
    Wl.params =
      [
        ("generator", "random_combinational");
        ("circuits", string_of_int ncircuits);
        ("gates", Printf.sprintf "%d..%d" (gates 0) (gates (ncircuits - 1)));
        ("inputs", string_of_int inputs);
        ("requests_per_epoch", string_of_int requests);
        ("cache_capacity", string_of_int default_capacity);
        ("ref_cache_capacity", string_of_int (ncircuits + 4));
        ("sessions_open", string_of_int sessions_open);
        ( "mix",
          String.concat " "
            (List.map
               (fun k -> Printf.sprintf "%s=%d" (kind_name k) (count k))
               [ Load; Close; Set_input; Inject; Advance; Query ]) );
      ];
    setup = List.map (fun e -> e.setup) all;
    work = List.map (fun e -> e.rate) default;
    ref_work = List.map (fun e -> e.rate) fits;
    latency = lat.all;
    attempted = List.fold_left (fun acc e -> acc + e.requests + 2) 0 all;
    failed =
      List.fold_left (fun acc e -> acc + e.errors) 0 all + mismatched default + mismatched fits;
    checks =
      [
        ("replies_digest", e0.digest);
        ("replies_digest_cache_fits", (List.hd fits).digest);
        ("cache_hits", string_of_int e0.hits);
        ("cache_misses", string_of_int e0.misses);
        ("cache_evictions", string_of_int e0.evictions);
        ("advance_events", string_of_int e0.adv_events);
      ];
    layer =
      [
        ("decode_us", Wl.median_of "probe.decode" *. 1e6);
        ("encode_us", Wl.median_of "probe.encode" *. 1e6);
        ("load_hit_us", p50_of Load true);
        ("load_miss_us", p50_of Load false);
        ("set_input_us", p50_of Set_input false);
        ("inject_us", p50_of Inject false);
        ("advance_us", p50_of Advance false);
        ("query_us", p50_of Query false);
        ("cache_hits", float_of_int e0.hits);
        ("cache_misses", float_of_int e0.misses);
        ("cache_evictions", float_of_int e0.evictions);
        ("advance_events", float_of_int e0.adv_events);
      ];
  }
