module Json = Halotis_util.Json
module P = Protocol
module Netlist = Halotis_netlist.Netlist
module Hnl = Halotis_netlist.Hnl
module Iscas = Halotis_netlist.Iscas
module Stimfile = Halotis_stim.Stimfile
module Sim = Halotis_engine.Sim
module Compiled = Halotis_engine.Compiled
module Budget = Halotis_guard.Budget
module Watchdog = Halotis_guard.Watchdog
module Diag = Halotis_guard.Diag

type config = {
  cf_cache_size : int;
  cf_max_events : int option;
  cf_max_transitions : int option;
  cf_watchdog : bool;
  cf_tech : Halotis_tech.Tech.t;
  cf_overlay : Halotis_tech.Param_overlay.t;
}

let default_config () =
  {
    cf_cache_size = 8;
    cf_max_events = Some 10_000_000;
    cf_max_transitions = Some 5_000_000;
    cf_watchdog = true;
    cf_tech = Halotis_tech.Default_lib.tech;
    cf_overlay = Halotis_tech.Param_overlay.empty;
  }

type t = {
  cfg : config;
  cache : Circuit_cache.t;
  fingerprint : string;  (* of [cfg.cf_overlay], part of every cache key *)
  mutable stopping : bool;
}

let create cfg =
  {
    cfg;
    cache = Circuit_cache.create ~capacity:cfg.cf_cache_size;
    fingerprint = Halotis_tech.Param_overlay.fingerprint cfg.cf_overlay;
    stopping = false;
  }

let cache t = t.cache
let stopping t = t.stopping

type conn = {
  server : t;
  mutable next_id : int;  (** the id the next request must carry *)
  mutable greeted : bool;
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_session : int;
}

let connect server =
  { server; next_id = 1; greeted = false; sessions = Hashtbl.create 8; next_session = 1 }

(* --- circuit loading --- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let strip_ext name = Filename.remove_extension (Filename.basename name)

(* The cache key covers the parse recipe, not just the bytes: the same
   source text means different circuits under ISCAS and HNL rules. *)
let parse_recipe = function
  | P.Inline _ -> "hnl:inline"
  | P.Path p ->
      if Filename.check_suffix p ".bench" then "iscas:" ^ strip_ext p else "hnl:"

let circuit_bytes = function
  | P.Inline s -> s
  | P.Path p -> ( try read_file p with Sys_error m -> Diag.fail ~code:"io" m)

let parse_circuit source text =
  match source with
  | P.Path p when Filename.check_suffix p ".bench" -> (
      match Iscas.parse_string ~name:(strip_ext p) text with
      | Ok c -> c
      | Error e ->
          Diag.fail ~code:"iscas-parse" ~file:p ~line:e.Iscas.line e.Iscas.message)
  | P.Path p -> (
      match Hnl.parse_string text with
      | Ok c -> c
      | Error e -> Diag.fail ~code:"netlist-parse" ~file:p ~line:e.Hnl.line e.Hnl.message)
  | P.Inline _ -> (
      match Hnl.parse_string text with
      | Ok c -> c
      | Error e -> Diag.fail ~code:"netlist-parse" ~line:e.Hnl.line e.Hnl.message)

(* --- request handlers --- *)

let find_session conn sid =
  match Hashtbl.find_opt conn.sessions sid with
  | Some s -> s
  | None -> Diag.fail ~code:"unknown-session" (Printf.sprintf "no open session %d" sid)

let signal_names c ids = Json.Arr (List.map (fun sid -> Json.Str (Netlist.signal_name c sid)) ids)

let handle_load conn (l : P.load) =
  let engine =
    match Sim.engine_of_string l.P.ld_engine with
    | Some e -> e
    | None -> Diag.fail ~code:"bad-request" (Printf.sprintf "unknown engine %S" l.P.ld_engine)
  in
  let text = circuit_bytes l.P.ld_circuit in
  let overlay = conn.server.cfg.cf_overlay in
  (* The key also covers the parameter overlay's fingerprint: two
     corners of the same source must never alias a compiled circuit.
     Only the source text is hashed, so it is never copied. *)
  let key =
    String.concat "\x00"
      [ parse_recipe l.P.ld_circuit; Circuit_cache.key_of_source text; conn.server.fingerprint ]
  in
  let compiled, hit =
    Circuit_cache.find_or_compile conn.server.cache ~key ~compile:(fun () ->
        Compiled.compile ~overlay conn.server.cfg.cf_tech
          (parse_circuit l.P.ld_circuit text))
  in
  let circuit = compiled.Compiled.circuit in
  let drives, slope =
    match l.P.ld_stim with
    | None -> ([], 100.)
    | Some path -> (
        match Stimfile.parse_file path with
        | Error e ->
            Diag.fail ~code:"stim-parse" ~file:path ~line:e.Stimfile.line e.Stimfile.message
        | Ok sf -> (
            match Stimfile.bind sf circuit with
            | Error m -> Diag.fail ~code:"stim-bind" ~file:path m
            | Ok drives -> (drives, sf.Stimfile.slope)))
  in
  let cfg = conn.server.cfg in
  let pick ov default = match ov with Some v -> Some v | None -> default in
  let budget =
    {
      Budget.unlimited with
      Budget.max_events = pick l.P.ld_max_events cfg.cf_max_events;
      max_transitions = pick l.P.ld_max_transitions cfg.cf_max_transitions;
    }
  in
  let watchdog =
    if match l.P.ld_watchdog with Some b -> b | None -> cfg.cf_watchdog then
      Some (Watchdog.config ())
    else None
  in
  let id = conn.next_session in
  let session =
    Session.create ~id ~engine ~compiled ~drives ~slope ~budget ~watchdog
      ~t_stop:l.P.ld_t_stop
  in
  conn.next_session <- id + 1;
  Hashtbl.replace conn.sessions id session;
  Json.Obj
    [
      ("session", Json.Num (float_of_int id));
      ("circuit", Json.Str (Netlist.name circuit));
      ("engine", Json.Str (Sim.engine_to_string engine));
      ("cache", Json.Str (if hit then "hit" else "miss"));
      ("inputs", signal_names circuit (Netlist.primary_inputs circuit));
      ("outputs", signal_names circuit (Netlist.primary_outputs circuit));
      ("time", Json.Num 0.);
    ]

let handle_request conn = function
  | P.Hello v ->
      if v <> P.version then
        Diag.fail ~code:"protocol"
          (Printf.sprintf "unsupported protocol version %d (server speaks %d)" v P.version);
      conn.greeted <- true;
      Json.Obj [ ("server", Json.Str "halotis"); ("protocol", Json.Num (float_of_int P.version)) ]
  | P.Load l -> handle_load conn l
  | P.Set_input { si_session; si_signal; si_at; si_level; si_slope } ->
      let session = find_session conn si_session in
      let changed =
        Session.set_input session ~signal:si_signal ~at:si_at ~level:si_level
          ~slope:si_slope
      in
      Json.Obj [ ("changed", Json.Bool changed); ("time", Json.Num (Session.frontier session)) ]
  | P.Advance { ad_session; ad_upto } ->
      let session = find_session conn ad_session in
      let upto =
        match ad_upto with
        | P.Upto t -> t
        | P.Dt d ->
            if d < 0. then Diag.fail ~code:"bad-request" "\"dt\" must be non-negative";
            Session.frontier session +. d
      in
      Session.advance session ~upto
  | P.Query { qu_session; qu_query } -> (
      let session = find_session conn qu_session in
      match qu_query with
      | P.Q_edges sigopt -> Session.query_edges session sigopt
      | P.Q_waveform s -> Session.query_waveform session s
      | P.Q_offenders n -> Session.query_offenders session n
      | P.Q_stats -> Session.query_stats session)
  | P.Inject { in_session; in_signal; in_at; in_width; in_slope; in_up } ->
      let session = find_session conn in_session in
      Session.inject session ~signal:in_signal ~at:in_at ~width:in_width
        ~slope:in_slope ~up:in_up;
      Json.Obj [ ("injected", Json.Bool true); ("signal", Json.Str in_signal) ]
  | P.Close sid ->
      if not (Hashtbl.mem conn.sessions sid) then
        Diag.fail ~code:"unknown-session" (Printf.sprintf "no open session %d" sid);
      Hashtbl.remove conn.sessions sid;
      Json.Obj [ ("closed", Json.Num (float_of_int sid)) ]
  | P.Cache_stats -> Circuit_cache.to_json conn.server.cache
  | P.Shutdown ->
      conn.server.stopping <- true;
      Json.Obj [ ("stopping", Json.Bool true) ]

let handle_line conn line =
  let response =
    match Json.parse_strict line with
    | Error e -> P.err ~code:"parse" (Json.parse_error_to_string e)
    | Ok j -> (
        match Json.member "id" j with
        | Some (Json.Num f) when Float.is_integer f -> (
            let id = int_of_float f in
            if id <> conn.next_id then
              P.err ~id ~code:"protocol"
                (Printf.sprintf "out-of-order request: expected id %d, got %d" conn.next_id id)
            else begin
              conn.next_id <- id + 1;
              match P.request_of_json j with
              | Error m -> P.err ~id ~code:"bad-request" m
              | Ok req -> (
                  if (not conn.greeted) && req <> P.Hello P.version then
                    P.err ~id ~code:"protocol"
                      (Printf.sprintf "the first request must be {\"op\":\"hello\",\"version\":%d}"
                         P.version)
                  else
                    try P.ok ~id (handle_request conn req) with
                    | Diag.Fail d -> P.err ~id ~code:d.Diag.code d.Diag.message
                    | Invalid_argument m -> P.err ~id ~code:"bad-request" m
                    | Sys_error m -> P.err ~id ~code:"io" m)
            end)
        | _ -> P.err ~code:"protocol" "every request needs an integer \"id\"")
  in
  P.response_to_line response

(* --- transports --- *)

let serve_channels t ic oc =
  let conn = connect t in
  let reader = Json.Lines.of_channel ic in
  let rec loop () =
    if not t.stopping then
      match Json.Lines.next reader with
      | None -> ()
      | Some line ->
          if String.trim line <> "" then begin
            output_string oc (handle_line conn line);
            output_char oc '\n';
            flush oc
          end;
          loop ()
  in
  loop ()

let serve_stdio t = serve_channels t stdin stdout

let serve_socket t ~path =
  if Sys.file_exists path then Unix.unlink path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      while not t.stopping do
        let fd, _ = Unix.accept sock in
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (try serve_channels t ic oc with Sys_error _ | End_of_file -> ());
        (try flush oc with Sys_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ()
      done)
