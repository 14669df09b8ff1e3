module Stop = Halotis_guard.Stop
module Diag = Halotis_guard.Diag

type config = {
  sv_jobs : int;
  sv_chunk_sites : int;
  sv_worker_timeout : float;
  sv_max_retries : int;
  sv_poison_after : int;
  sv_backoff : float;
  sv_poll_interval : float;
}

let config ?(chunk_sites = 0) ?(worker_timeout = 30.) ?(max_retries = 10)
    ?(poison_after = 3) ?(backoff = 0.05) ?(poll_interval = 0.02) ~jobs () =
  if jobs < 1 then invalid_arg "Supervisor.config: jobs must be positive";
  if chunk_sites < 0 then invalid_arg "Supervisor.config: chunk_sites must be >= 0";
  if worker_timeout <= 0. then
    invalid_arg "Supervisor.config: worker_timeout must be positive";
  if max_retries < 0 then invalid_arg "Supervisor.config: max_retries must be >= 0";
  if poison_after < 1 then invalid_arg "Supervisor.config: poison_after must be >= 1";
  {
    sv_jobs = jobs;
    sv_chunk_sites = chunk_sites;
    sv_worker_timeout = worker_timeout;
    sv_max_retries = max_retries;
    sv_poison_after = poison_after;
    sv_backoff = backoff;
    sv_poll_interval = poll_interval;
  }

type outcome = {
  sv_exit_code : int;
  sv_quarantined : int list;
  sv_retries : int;
  sv_kills : int;
  sv_slots : int;
}

(* ---- chunk planning ------------------------------------------------ *)

let auto_chunk_sites ~total ~jobs =
  (* ~4 chunks per worker keeps the lost-work bound small without
     drowning in process spawns *)
  max 1 ((total + (4 * jobs) - 1) / (4 * jobs))

let split_run ~chunk_sites (lo, hi) =
  let rec go acc lo =
    if lo >= hi then List.rev acc
    else
      let mid = min hi (lo + chunk_sites) in
      go ((lo, mid) :: acc) mid
  in
  go [] lo

let plan_chunks ~total ~chunk_sites =
  if total < 0 then invalid_arg "Supervisor.plan_chunks: total must be >= 0";
  if chunk_sites < 1 then invalid_arg "Supervisor.plan_chunks: chunk_sites must be >= 1";
  split_run ~chunk_sites (0, total)

(* Runs of [\[0, total)] not covered by any of [ranges]. *)
let uncovered ~total ranges =
  let covered = Array.make (max total 1) false in
  List.iter
    (fun (lo, hi) ->
      for i = max 0 lo to min total hi - 1 do
        covered.(i) <- true
      done)
    ranges;
  let runs = ref [] in
  let start = ref None in
  for i = 0 to total - 1 do
    match (!start, covered.(i)) with
    | None, false -> start := Some i
    | Some s, true ->
        runs := (s, i) :: !runs;
        start := None
    | _ -> ()
  done;
  (match !start with Some s -> runs := (s, total) :: !runs | None -> ());
  List.rev !runs

(* ---- supervisor state ---------------------------------------------- *)

type chunk = {
  ch_id : int;
  ch_range : int * int;
  ch_journal : string;
  mutable ch_retries : int;
  mutable ch_last_blame : int option;
  mutable ch_streak : int;
  mutable ch_ready_at : float;
}

type running = {
  rn_chunk : chunk;
  rn_worker : Shard.worker;
  mutable rn_last_cursor : int;
  mutable rn_last_progress : float;
}

let mk_chunk ~base ~id ~range =
  {
    ch_id = id;
    ch_range = range;
    ch_journal = Shard.journal_path base id;
    ch_retries = 0;
    ch_last_blame = None;
    ch_streak = 0;
    ch_ready_at = 0.;
  }

(* Existing [base.N] chunk journals from an interrupted campaign — any
   journal with a [! range] header, including per-worker journals left
   by the older one-shot K/N shard workers: their header ranges become
   resumed chunks.
   Unparseable files (a worker died inside the header write) carry no
   data and are removed so the final merge never trips over them. *)
let scan_existing ~base ~total ~check =
  let dir = Filename.dirname base in
  let name = Filename.basename base in
  let prefix = name ^ "." in
  let plen = String.length prefix in
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter_map (fun f ->
         if String.length f <= plen || String.sub f 0 plen <> prefix then None
         else
           match int_of_string_opt (String.sub f plen (String.length f - plen)) with
           | None -> None
           | Some id -> (
               let path = Filename.concat dir f in
               match Journal.load path with
               | hdr, _ ->
                   check hdr;
                   (match hdr.Journal.jh_range with
                   | Some (lo, hi) when 0 <= lo && lo < hi && hi <= total ->
                       Some (id, (lo, hi))
                   | _ -> None)
               | exception Diag.Fail _ ->
                   (try Sys.remove path with Sys_error _ -> ());
                   None))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let plan ~base ~total ~chunk_sites ~check =
  let existing = scan_existing ~base ~total ~check in
  let used = List.map fst existing in
  let fresh_runs = uncovered ~total (List.map snd existing) in
  let fresh_ranges = List.concat_map (split_run ~chunk_sites) fresh_runs in
  let next_id = ref 0 in
  let fresh_id () =
    while List.mem !next_id used do
      incr next_id
    done;
    let id = !next_id in
    incr next_id;
    id
  in
  List.map (fun (id, range) -> mk_chunk ~base ~id ~range) existing
  @ List.map (fun range -> mk_chunk ~base ~id:(fresh_id ()) ~range) fresh_ranges

(* ---- journal inspection -------------------------------------------- *)

(* The length of the contiguous entry prefix a chunk journal holds,
   i.e. the first unjournaled (blame) index is [lo + prefix].  A
   missing or unloadable journal holds nothing. *)
let journal_prefix ~range:(lo, hi) path =
  match Journal.load path with
  | _, entries ->
      let n = ref 0 in
      List.iter (fun (idx, _) -> if idx = lo + !n then incr n) entries;
      min !n (hi - lo)
  | exception Diag.Fail _ -> 0

let chunk_complete chunk =
  let lo, hi = chunk.ch_range in
  journal_prefix ~range:chunk.ch_range chunk.ch_journal = hi - lo

(* ---- the supervision loop ------------------------------------------ *)

let warn log ~code ?hint msg =
  log (Diag.to_string (Diag.make ~severity:Diag.Warning ?hint ~code msg))

let run cfg ~total ~base ~worker_argv ~check ~mk_header ?(log = fun _ -> ()) () =
  let chunks = plan ~base ~total ~chunk_sites:cfg.sv_chunk_sites ~check in
  let slots =
    1 + List.fold_left (fun acc c -> max acc c.ch_id) (-1) chunks
  in
  let queue = ref chunks in
  let running = ref [] in
  let done_codes = ref [] in
  let quarantined = ref [] in
  let retries = ref 0 in
  let kills = ref 0 in
  let spawn chunk =
    let lo, hi = chunk.ch_range in
    let argv = worker_argv ~range:chunk.ch_range ~journal:chunk.ch_journal in
    let w =
      Shard.spawn
        ~stderr_file:(Shard.stderr_path base chunk.ch_id)
        ~argv ~index:chunk.ch_id ~range:chunk.ch_range ~journal:chunk.ch_journal
        ()
    in
    log
      (Printf.sprintf "supervisor: chunk %d [%d,%d) -> pid %d%s" chunk.ch_id lo hi
         w.Shard.wk_pid
         (if chunk.ch_retries > 0 then Printf.sprintf " (retry %d)" chunk.ch_retries
          else ""));
    running :=
      {
        rn_chunk = chunk;
        rn_worker = w;
        rn_last_cursor = -1;
        rn_last_progress = Unix.gettimeofday ();
      }
      :: !running
  in
  let quarantine chunk blame =
    (* the supervisor owns the q record: create the journal if the
       workers never even wrote the header *)
    let w =
      if Sys.file_exists chunk.ch_journal then
        match Journal.load chunk.ch_journal with
        | _ -> Journal.open_append chunk.ch_journal
        | exception Diag.Fail _ ->
            Journal.open_new chunk.ch_journal (mk_header ~range:chunk.ch_range)
      else Journal.open_new chunk.ch_journal (mk_header ~range:chunk.ch_range)
    in
    Journal.write_quarantine w blame;
    Journal.close w;
    quarantined := blame :: !quarantined;
    warn log ~code:"site-quarantined"
      ~hint:"the report is degraded: the site is listed under quarantined_sites"
      (Printf.sprintf
         "site %d crashed or hung %d consecutive workers and was quarantined" blame
         chunk.ch_streak);
    chunk.ch_last_blame <- None;
    chunk.ch_streak <- 0;
    (* the identified cause is gone: give the chunk a fresh retry budget *)
    chunk.ch_retries <- 0
  in
  let handle_failure ~reason chunk =
    incr retries;
    chunk.ch_retries <- chunk.ch_retries + 1;
    let lo, hi = chunk.ch_range in
    let prefix = journal_prefix ~range:chunk.ch_range chunk.ch_journal in
    let blame = lo + prefix in
    let tail = Shard.stderr_tail (Shard.stderr_path base chunk.ch_id) in
    let tail_s =
      if tail = [] then ""
      else Printf.sprintf "; worker stderr: %s" (String.concat " | " tail)
    in
    warn log ~code:"worker-stall"
      (Printf.sprintf "chunk %d [%d,%d) worker %s at site %d (attempt %d)%s"
         chunk.ch_id lo hi reason blame chunk.ch_retries tail_s);
    if blame < hi then begin
      (match chunk.ch_last_blame with
      | Some b when b = blame -> chunk.ch_streak <- chunk.ch_streak + 1
      | _ -> chunk.ch_streak <- 1);
      chunk.ch_last_blame <- Some blame;
      if chunk.ch_streak >= cfg.sv_poison_after then quarantine chunk blame
    end
    else begin
      (* journal already covers the range: the worker died after the
         work was durable, so the retry only has to merge and exit *)
      chunk.ch_last_blame <- None;
      chunk.ch_streak <- 0
    end;
    if chunk.ch_retries > cfg.sv_max_retries then begin
      (* don't orphan the rest of the pool on the way out *)
      List.iter
        (fun r ->
          (try Unix.kill r.rn_worker.Shard.wk_pid Sys.sigkill
           with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] r.rn_worker.Shard.wk_pid)
          with Unix.Unix_error _ -> ())
        !running;
      Diag.fail ~code:"worker-retries"
        ~hint:"raise --max-retries or investigate the worker stderr capture"
        (Printf.sprintf "chunk %d [%d,%d) failed %d times; giving up%s" chunk.ch_id
           lo hi chunk.ch_retries tail_s)
    end;
    let delay =
      if chunk.ch_retries = 0 then 0.
      else cfg.sv_backoff *. (2. ** float_of_int (min (chunk.ch_retries - 1) 6))
    in
    chunk.ch_ready_at <- Unix.gettimeofday () +. delay;
    queue := !queue @ [ chunk ]
  in
  let reap r status =
    running := List.filter (fun r' -> r' != r) !running;
    match status with
    | Unix.WEXITED n when n = 0 || n = 3 || n = 4 ->
        if chunk_complete r.rn_chunk then done_codes := n :: !done_codes
        else
          handle_failure
            ~reason:
              (Printf.sprintf "exited %d with an incomplete journal" n)
            r.rn_chunk
    | status ->
        handle_failure
          ~reason:(Printf.sprintf "died (%s)" (Shard.status_to_string status))
          r.rn_chunk
  in
  let kill_stalled r =
    incr kills;
    (try Unix.kill r.rn_worker.Shard.wk_pid Sys.sigkill
     with Unix.Unix_error _ -> ());
    let rec wait () =
      match Unix.waitpid [] r.rn_worker.Shard.wk_pid with
      | _, status -> status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
    in
    let _status = wait () in
    running := List.filter (fun r' -> r' != r) !running;
    handle_failure
      ~reason:
        (Printf.sprintf "made no journal progress for %.1fs and was killed"
           cfg.sv_worker_timeout)
      r.rn_chunk
  in
  while !queue <> [] || !running <> [] do
    let now = Unix.gettimeofday () in
    (* fill free slots with ready chunks *)
    let rec fill () =
      if List.length !running < cfg.sv_jobs then
        match List.partition (fun c -> c.ch_ready_at <= now) !queue with
        | ready :: rest_ready, waiting ->
            queue := rest_ready @ waiting;
            spawn ready;
            fill ()
        | [], _ -> ()
    in
    fill ();
    (* poll the pool: reap exits, heartbeat the rest *)
    let pool = !running in
    List.iter
      (fun r ->
        match Unix.waitpid [ Unix.WNOHANG ] r.rn_worker.Shard.wk_pid with
        | 0, _ ->
            let cursor =
              match Journal.read_cursor (Journal.cursor_path r.rn_chunk.ch_journal) with
              | Some c -> c
              | None -> -1
            in
            if cursor > r.rn_last_cursor then begin
              r.rn_last_cursor <- cursor;
              r.rn_last_progress <- Unix.gettimeofday ()
            end
            else if Unix.gettimeofday () -. r.rn_last_progress > cfg.sv_worker_timeout
            then kill_stalled r
        | _, status -> reap r status
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
            (* already reaped somehow: judge by the journal alone *)
            reap r (Unix.WEXITED 0))
      pool;
    if !running <> [] || !queue <> [] then Unix.sleepf cfg.sv_poll_interval
  done;
  let quarantined = List.sort_uniq Int.compare !quarantined in
  let codes =
    if quarantined <> [] then Stop.degraded_exit_code :: !done_codes else !done_codes
  in
  {
    sv_exit_code = Stop.worst_exit_code codes;
    sv_quarantined = quarantined;
    sv_retries = !retries;
    sv_kills = !kills;
    sv_slots = slots;
  }
