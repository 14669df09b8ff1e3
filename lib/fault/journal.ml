module Stats = Halotis_engine.Stats
module Transition = Halotis_wave.Transition
module Stop = Halotis_guard.Stop
module Diag = Halotis_guard.Diag

type header = {
  jh_circuit : string;
  jh_engine : Campaign.engine;
  jh_seed : int;
  jh_n : int;
  jh_width : float;
  jh_slope : float;
  jh_t_stop : float;
  jh_window : (float * float) option;
  jh_range : (int * int) option;
  jh_overlay : string option;
}

(* v2 added the PRUNE token to the params line ([-]; [p] marked a
   statically pruned campaign, a removed feature whose journals are
   refused); v3 adds quarantine records ([q IDX]) written by the
   campaign supervisor.  A non-nominal parameter overlay adds an
   optional trailing [ov:<hex>] token to the params line — absent for
   the empty overlay, so nominal v3 journals are byte-identical to the
   pre-overlay format.  v1 and v2 files still load. *)
let magic_v1 = "# halotis-faults journal v1"
let magic_v2 = "# halotis-faults journal v2"
let magic = "# halotis-faults journal v3"

let overlay_fingerprint (cfg : Campaign.config) =
  if Halotis_tech.Param_overlay.is_empty cfg.Campaign.overlay then None
  else Some (Halotis_tech.Param_overlay.fingerprint cfg.Campaign.overlay)

let header_of ~circuit ?range (cfg : Campaign.config) =
  {
    jh_circuit = circuit;
    jh_engine = cfg.Campaign.engine;
    jh_seed = cfg.Campaign.seed;
    jh_n = cfg.Campaign.n;
    jh_width = cfg.Campaign.pulse.Inject.width;
    jh_slope = cfg.Campaign.pulse.Inject.slope;
    jh_t_stop = cfg.Campaign.t_stop;
    jh_window = cfg.Campaign.window;
    jh_range = range;
    jh_overlay = overlay_fingerprint cfg;
  }

let check h ~circuit ?range (cfg : Campaign.config) =
  let fail what = Diag.fail ~code:"journal-mismatch"
      (Printf.sprintf "journal was written for a different campaign: %s differs" what)
  in
  if h.jh_circuit <> circuit then fail "circuit";
  if h.jh_engine <> cfg.Campaign.engine then fail "engine";
  if h.jh_seed <> cfg.Campaign.seed then fail "seed";
  if h.jh_n <> cfg.Campaign.n then fail "n";
  if h.jh_width <> cfg.Campaign.pulse.Inject.width then fail "pulse width";
  if h.jh_slope <> cfg.Campaign.pulse.Inject.slope then fail "pulse slope";
  if h.jh_t_stop <> cfg.Campaign.t_stop then fail "t_stop";
  if h.jh_window <> cfg.Campaign.window then fail "window";
  if h.jh_range <> range then fail "shard range";
  if h.jh_overlay <> overlay_fingerprint cfg then fail "parameter overlay"
(* [cfg.incremental] is deliberately NOT part of the fingerprint: cone
   re-simulation is result-invariant (byte-identical verdicts), so a
   journal written with it on resumes cleanly with it off and vice
   versa. *)

(* %h prints a lossless hex float; float_of_string reads it back
   bit-exactly, which is what makes resumed reports byte-identical. *)
let fstr = Printf.sprintf "%h"

let stop_token = function
  | Stop.Completed -> "-"
  | Stop.Event_budget n -> "E" ^ string_of_int n
  | Stop.Wall_clock s -> "W" ^ fstr s
  | Stop.Queue_cap n -> "Q" ^ string_of_int n
  | Stop.Sim_time t -> "T" ^ fstr t
  | Stop.Transition_cap n -> "C" ^ string_of_int n
  | Stop.Oscillation names -> "O" ^ String.concat ";" names

let stop_of_token tok =
  if tok = "-" then Some Stop.Completed
  else if String.length tok < 2 then None
  else
    let rest = String.sub tok 1 (String.length tok - 1) in
    match tok.[0] with
    | 'E' -> Option.map (fun n -> Stop.Event_budget n) (int_of_string_opt rest)
    | 'W' -> Option.map (fun s -> Stop.Wall_clock s) (float_of_string_opt rest)
    | 'Q' -> Option.map (fun n -> Stop.Queue_cap n) (int_of_string_opt rest)
    | 'T' -> Option.map (fun t -> Stop.Sim_time t) (float_of_string_opt rest)
    | 'C' -> Option.map (fun n -> Stop.Transition_cap n) (int_of_string_opt rest)
    | 'O' -> Some (Stop.Oscillation (String.split_on_char ';' rest))
    | _ -> None

type entry = Verdict of Campaign.verdict | Quarantined

let verdict_line idx (v : Campaign.verdict) =
  let site = v.Campaign.vd_site in
  let s = v.Campaign.vd_stats in
  Printf.sprintf "v %d %d %d %c %s %s %d %s %d %d %d %d %d %d %d %s" idx
    site.Site.st_signal site.Site.st_gate
    (match site.Site.st_polarity with Transition.Rising -> 'R' | Transition.Falling -> 'F')
    (fstr site.Site.st_at)
    (Campaign.outcome_to_string v.Campaign.vd_outcome)
    v.Campaign.vd_po_edges_delta
    (match v.Campaign.vd_first_diff_output with Some n -> n | None -> "-")
    s.Stats.events_scheduled s.Stats.events_processed s.Stats.events_filtered
    s.Stats.stale_skipped s.Stats.transitions_emitted s.Stats.transitions_annulled
    s.Stats.noop_evaluations
    (stop_token s.Stats.stopped_by)

let quarantine_line idx = Printf.sprintf "q %d" idx

let entry_line idx = function
  | Verdict v -> verdict_line idx v
  | Quarantined -> quarantine_line idx

let parse_verdict_line line =
  match String.split_on_char ' ' line with
  | [
   "v"; idx; sig_; gate; pol; at; outcome; po_delta; first_diff; es; ep; ef; ss; te; ta;
   ne; stop;
  ] -> (
      let ( let* ) = Option.bind in
      let* idx = int_of_string_opt idx in
      let* st_signal = int_of_string_opt sig_ in
      let* st_gate = int_of_string_opt gate in
      let* st_polarity =
        match pol with
        | "R" -> Some Transition.Rising
        | "F" -> Some Transition.Falling
        | _ -> None
      in
      let* st_at = float_of_string_opt at in
      let* vd_outcome = Campaign.outcome_of_string outcome in
      let* vd_po_edges_delta = int_of_string_opt po_delta in
      let vd_first_diff_output = if first_diff = "-" then None else Some first_diff in
      let* es = int_of_string_opt es in
      let* ep = int_of_string_opt ep in
      let* ef = int_of_string_opt ef in
      let* ss = int_of_string_opt ss in
      let* te = int_of_string_opt te in
      let* ta = int_of_string_opt ta in
      let* ne = int_of_string_opt ne in
      let* stopped_by = stop_of_token stop in
      let vd_stats = Stats.create () in
      vd_stats.Stats.events_scheduled <- es;
      vd_stats.Stats.events_processed <- ep;
      vd_stats.Stats.events_filtered <- ef;
      vd_stats.Stats.stale_skipped <- ss;
      vd_stats.Stats.transitions_emitted <- te;
      vd_stats.Stats.transitions_annulled <- ta;
      vd_stats.Stats.noop_evaluations <- ne;
      vd_stats.Stats.stopped_by <- stopped_by;
      Some
        ( idx,
          {
            Campaign.vd_site = { Site.st_signal; st_gate; st_polarity; st_at };
            vd_outcome;
            vd_po_edges_delta;
            vd_first_diff_output;
            vd_stats;
          } ))
  | _ -> None

let parse_entry_line line =
  match String.split_on_char ' ' line with
  | [ "q"; idx ] ->
      Option.map (fun idx -> (idx, Quarantined)) (int_of_string_opt idx)
  | _ ->
      Option.map (fun (idx, v) -> (idx, Verdict v)) (parse_verdict_line line)

(* --- progress cursor ------------------------------------------------

   A sidecar file ("journal.cursor") holding the highest fsync'd entry
   index as one ASCII integer — the supervisor's heartbeat.  It is
   rewritten in place and fsync'd only {e after} the journal itself has
   been synced, so it may understate progress (a kill between the two
   fsyncs) but never overstate it. *)

let cursor_path path = path ^ ".cursor"

let read_cursor path =
  match In_channel.with_open_bin path In_channel.input_all with
  | content -> int_of_string_opt (String.trim content)
  | exception Sys_error _ -> None

let write_cursor_fd fd idx =
  let s = string_of_int idx ^ "\n" in
  let b = Bytes.of_string s in
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  let rec put o =
    if o < Bytes.length b then put (o + Unix.write fd b o (Bytes.length b - o))
  in
  put 0;
  Unix.ftruncate fd (Bytes.length b);
  Unix.fsync fd

type writer = {
  oc : out_channel;
  sync_every : int;
  mutable unsynced : int;
  cursor_fd : Unix.file_descr option;
  mutable last_idx : int;  (** highest entry index written; [-1] = none yet *)
}

let sync w =
  flush w.oc;
  Unix.fsync (Unix.descr_of_out_channel w.oc);
  w.unsynced <- 0;
  match w.cursor_fd with
  | Some fd when w.last_idx >= 0 -> write_cursor_fd fd w.last_idx
  | Some _ | None -> ()

let open_cursor ~cursor path =
  if not cursor then None
  else
    Some (Unix.openfile (cursor_path path) [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644)

let open_new ?(sync_every = 8) ?(cursor = false) path h =
  let oc = open_out path in
  let w =
    {
      oc;
      sync_every = max 1 sync_every;
      unsynced = 0;
      cursor_fd = open_cursor ~cursor path;
      last_idx = -1;
    }
  in
  output_string oc (magic ^ "\n");
  output_string oc (Printf.sprintf "! circuit %s\n" h.jh_circuit);
  let w0, w1 =
    match h.jh_window with Some (a, b) -> (fstr a, fstr b) | None -> ("-", "-")
  in
  output_string oc
    (Printf.sprintf "! params %s %d %d %s %s %s %s %s -%s\n"
       (Campaign.engine_to_string h.jh_engine)
       h.jh_seed h.jh_n (fstr h.jh_width) (fstr h.jh_slope) (fstr h.jh_t_stop) w0 w1
       (* the nominal corner writes nothing, keeping pre-overlay
          journal bytes unchanged *)
       (match h.jh_overlay with Some fp -> " ov:" ^ fp | None -> ""));
  (* serial journals carry no range line, so their bytes are unchanged
     from the pre-sharding format *)
  (match h.jh_range with
  | Some (lo, hi) -> output_string oc (Printf.sprintf "! range %d %d\n" lo hi)
  | None -> ());
  sync w;
  w

let open_append ?(sync_every = 8) ?(cursor = false) path =
  (* A torn final record (the crash wrote half a line) must go before
     appending, or the next verdict line would begin mid-record and a
     later {!load} would reject the file. *)
  let keep =
    let content = In_channel.with_open_bin path In_channel.input_all in
    match String.rindex_opt content '\n' with Some i -> i + 1 | None -> 0
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd keep;
  ignore (Unix.lseek fd keep Unix.SEEK_SET);
  let oc = Unix.out_channel_of_descr fd in
  {
    oc;
    sync_every = max 1 sync_every;
    unsynced = 0;
    cursor_fd = open_cursor ~cursor path;
    last_idx = -1;
  }

let write_entry w idx e =
  output_string w.oc (entry_line idx e ^ "\n");
  w.last_idx <- idx;
  w.unsynced <- w.unsynced + 1;
  if w.unsynced >= w.sync_every then sync w

let write w idx v = write_entry w idx (Verdict v)
let write_quarantine w idx = write_entry w idx Quarantined

let close w =
  sync w;
  (match w.cursor_fd with Some fd -> Unix.close fd | None -> ());
  close_out w.oc

let parse_fail path msg =
  Diag.fail ~file:path ~code:"journal-parse" msg
    ~hint:"re-run without --resume to start the campaign over"

let load path =
  let content =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error msg -> Diag.fail ~code:"journal-parse" msg
  in
  (* The shared newline-delimited reader yields complete lines only: a
     torn write can only affect the tail, and a half-written final
     record stays in [leftover] and never parses. *)
  let lines = Halotis_util.Json.Lines.to_list (Halotis_util.Json.Lines.of_string content) in
  match lines with
  | [] -> parse_fail path "empty journal"
  | m :: rest when m = magic || m = magic_v2 || m = magic_v1 -> (
      let circuit, rest =
        match rest with
        | l :: tl when String.length l > 10 && String.sub l 0 10 = "! circuit " ->
            (String.sub l 10 (String.length l - 10), tl)
        | _ -> parse_fail path "missing '! circuit' line"
      in
      let header, rest =
        match rest with
        | l :: tl -> (
            (* v1 params lines have no prune token: normalise to "-".
               The optional trailing [ov:<hex>] overlay token is
               normalised the other way, peeled off first. *)
            let fields, overlay =
              let f = String.split_on_char ' ' l in
              match List.rev f with
              | last :: rev_rest
                when String.length last > 3 && String.sub last 0 3 = "ov:" ->
                  (List.rev rev_rest, Some (String.sub last 3 (String.length last - 3)))
              | _ -> (f, None)
            in
            let fields =
              match fields with
              | [ _; _; _; _; _; _; _; _; _; _ ] as f -> f @ [ "-" ]
              | f -> f
            in
            match fields with
            | [ "!"; "params"; engine; seed; n; width; slope; t_stop; w0; w1; prune ] -> (
                if prune = "p" then
                  Diag.fail ~file:path ~code:"journal-parse"
                    ~hint:"--prune static was removed; re-run without --resume"
                    "journal was written by a statically pruned campaign";
                let parsed =
                  let ( let* ) = Option.bind in
                  let* () = if prune = "-" then Some () else None in
                  let* jh_engine = Campaign.engine_of_string engine in
                  let* jh_seed = int_of_string_opt seed in
                  let* jh_n = int_of_string_opt n in
                  let* jh_width = float_of_string_opt width in
                  let* jh_slope = float_of_string_opt slope in
                  let* jh_t_stop = float_of_string_opt t_stop in
                  let* jh_window =
                    match (w0, w1) with
                    | "-", "-" -> Some None
                    | _ -> (
                        match (float_of_string_opt w0, float_of_string_opt w1) with
                        | Some a, Some b -> Some (Some (a, b))
                        | _ -> None)
                  in
                  Some
                    {
                      jh_circuit = circuit;
                      jh_engine;
                      jh_seed;
                      jh_n;
                      jh_width;
                      jh_slope;
                      jh_t_stop;
                      jh_window;
                      jh_range = None;
                      jh_overlay = overlay;
                    }
                in
                match parsed with
                | Some h -> (h, tl)
                | None -> parse_fail path "malformed '! params' line")
            | _ -> parse_fail path "missing '! params' line")
        | [] -> parse_fail path "missing '! params' line"
      in
      (* optional shard-range line, written by worker journals only *)
      let header, rest =
        match rest with
        | l :: tl when String.length l > 8 && String.sub l 0 8 = "! range " -> (
            match String.split_on_char ' ' l with
            | [ "!"; "range"; lo; hi ] -> (
                match (int_of_string_opt lo, int_of_string_opt hi) with
                | Some lo, Some hi -> ({ header with jh_range = Some (lo, hi) }, tl)
                | _ -> parse_fail path "malformed '! range' line")
            | _ -> parse_fail path "malformed '! range' line")
        | _ -> (header, rest)
      in
      let vlines = List.filter (fun l -> l <> "") rest in
      let nlines = List.length vlines in
      let verdicts = List.mapi (fun i l -> (l, i = nlines - 1)) vlines in
      let rec collect acc prev = function
        | [] -> List.rev acc
        | (line, is_last) :: tl -> (
            match parse_entry_line line with
            | Some (idx, e) when idx > prev -> collect ((idx, e) :: acc) idx tl
            | Some _ | None ->
                (* only the final record may be torn; anything earlier
                   is corruption (including an index that runs
                   backwards) *)
                if is_last then List.rev acc
                else parse_fail path (Printf.sprintf "corrupt verdict record: %S" line))
      in
      (header, collect [] (-1) verdicts))
  | _ -> parse_fail path "not a halotis-faults journal (bad magic line)"

let contiguous ~first indexed =
  List.mapi
    (fun i (idx, e) ->
      if idx <> first + i then
        Diag.fail ~code:"journal-merge"
          ~hint:"a worker died before journaling this site; re-run with --resume to fill the gap"
          (Printf.sprintf "verdict for site %d is missing (found %d instead)" (first + i)
             idx)
      else e)
    indexed

let partition ~first entries =
  let rec go i vs qs = function
    | [] -> (List.rev vs, List.rev qs)
    | Verdict v :: tl -> go (i + 1) (v :: vs) qs tl
    | Quarantined :: tl -> go (i + 1) vs (i :: qs) tl
  in
  go first [] [] entries

let merge parts =
  match parts with
  | [] -> Diag.fail ~code:"journal-merge" "no journals to merge"
  | (h0, _) :: _ ->
      let strip h = { h with jh_range = None } in
      List.iteri
        (fun k (h, _) ->
          if strip h <> strip h0 then
            Diag.fail ~code:"journal-merge"
              (Printf.sprintf
                 "shard journal %d was written for a different campaign than shard 0" k))
        parts;
      let all = List.concat_map snd parts in
      let sorted = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) all in
      (* Equal records for the same site (an overlap from a re-run
         shard) collapse; different ones mean the shards simulated
         different campaigns — or a retry re-simulated a site another
         attempt quarantined — and nothing can be trusted. *)
      let rec dedupe = function
        | (ia, ea) :: ((ib, eb) :: _ as tl) when ia = ib ->
            if entry_line ia ea = entry_line ib eb then dedupe tl
            else
              Diag.fail ~code:"journal-merge"
                (Printf.sprintf "shard journals disagree on the verdict for site %d" ia)
        | x :: tl -> x :: dedupe tl
        | [] -> []
      in
      (strip h0, dedupe sorted)
