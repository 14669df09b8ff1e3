(* SERVE — persistent simulation service (extension).

   The service's pitch is amortization: load a circuit once through the
   compiled-circuit cache, then run many interactive sessions against
   it.  Two numbers capture that: the warm-over-cold load speedup (a
   cache hit skips parse + elaborate + CSR flattening + coefficient
   pricing) and the sustained request throughput of interleaved
   sessions doing set_input / advance / query rounds.  Everything runs
   in-process through Server.handle_line — the same dispatch path the
   stdio and socket transports use, minus the pipe. *)

open Common
module Json = Halotis_util.Json
module Server = Halotis_serve.Server
module Circuit_cache = Halotis_serve.Circuit_cache

let nsessions = 4
let rounds = 64
let warm_loads = 32

let inputs = [| "a0"; "a1"; "a2"; "a3"; "b0"; "b1"; "b2"; "b3" |]

let run () =
  section "SERVE -- persistent service: cache speedup and request throughput (extension)";
  let server = Server.create (Server.default_config ()) in
  let conn = Server.connect server in
  let id = ref 0 in
  let send fields =
    incr id;
    let line =
      Json.to_string ~indent:false
        (Json.Obj (("id", Json.Num (float_of_int !id)) :: fields))
    in
    let resp = Server.handle_line conn line in
    match Json.parse resp with
    | Ok j when Json.member "ok" j = Some (Json.Bool true) -> ()
    | _ -> failwith ("serve bench: request failed: " ^ resp)
  in
  let load () =
    send
      [
        ("op", Json.Str "load");
        ("circuit", Json.Str (data "mult4x4.hnl"));
        ("engine", Json.Str "ddm");
        ("stim", Json.Str (data "mult4x4.hsv"));
      ]
  in
  send [ ("op", Json.Str "hello"); ("version", Json.Num 1.) ];
  (* cold load: parse + flatten + price the multiplier *)
  let t0 = Unix.gettimeofday () in
  load ();
  let cold_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
  (* the other interactive sessions, plus a batch of warm loads for a
     stable hit-path timing (each immediately closed) *)
  for _ = 2 to nsessions do
    load ()
  done;
  let t0 = Unix.gettimeofday () in
  for k = 0 to warm_loads - 1 do
    load ();
    send [ ("op", Json.Str "close"); ("session", Json.Num (float_of_int (nsessions + 1 + k))) ]
  done;
  let warm_ms = (Unix.gettimeofday () -. t0) *. 1e3 /. float_of_int warm_loads in
  (* throughput: interleaved rounds of set_input / advance / query over
     the surviving sessions, stepping past the stimulus activity *)
  let t0 = Unix.gettimeofday () in
  let nreq = ref 0 in
  for r = 0 to rounds - 1 do
    let at = 20_000. +. (1_000. *. float_of_int r) in
    for s = 1 to nsessions do
      send
        [
          ("op", Json.Str "set_input");
          ("session", Json.Num (float_of_int s));
          ("signal", Json.Str inputs.((r + s) mod Array.length inputs));
          ("at", Json.Num at);
          ("level", Json.Bool (r mod 2 = 0));
        ];
      send
        [
          ("op", Json.Str "advance");
          ("session", Json.Num (float_of_int s));
          ("upto", Json.Num (at +. 900.));
        ];
      send
        [
          ("op", Json.Str "query");
          ("session", Json.Num (float_of_int s));
          ("what", Json.Str "stats");
        ];
      nreq := !nreq + 3
    done
  done;
  let dt = Unix.gettimeofday () -. t0 in
  let requests_per_s = float_of_int !nreq /. dt in
  let hits = Circuit_cache.hits (Server.cache server) in
  let speedup = cold_ms /. warm_ms in
  Printf.printf "  sessions: %d, rounds: %d (3 requests each per session)\n" nsessions rounds;
  Printf.printf "  load: cold %.3f ms, warm %.4f ms (%.0fx), cache hits %d\n" cold_ms
    warm_ms speedup hits;
  Printf.printf "  throughput: %d requests in %.3f s = %.0f requests/s\n\n" !nreq dt
    requests_per_s;
  [
    Experiment.make
      ~data:
        [
          ("serve_load_cold_ms", cold_ms);
          ("serve_load_warm_ms", warm_ms);
          ("serve_warm_speedup", speedup);
          ("serve_requests_per_s", requests_per_s);
          ("serve_cache_hits", float_of_int hits);
        ]
      ~exp_id:"SERVE" ~title:"Persistent simulation service (extension)"
      [
        Experiment.observation ~agrees:(speedup > 1.)
          ~metric:"compiled-circuit cache: warm load vs cold load"
          ~paper:"(no serving mode in the paper; amortization claim)"
          ~measured:
            (Printf.sprintf "cold %.2f ms, warm %.4f ms: %.0fx, %d hits" cold_ms warm_ms
               speedup hits)
          ();
        Experiment.observation ~agrees:(requests_per_s > 100.)
          ~metric:
            (Printf.sprintf "request throughput, %d interleaved mult4x4 sessions"
               nsessions)
          ~paper:"(interactive use: must feel instantaneous)"
          ~measured:(Printf.sprintf "%.0f requests/s" requests_per_s)
          ~note:"set_input / advance / query rounds through Server.handle_line"
          ();
      ];
  ]
