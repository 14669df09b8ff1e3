module Diag = Halotis_util.Diag
module Stop = Halotis_guard.Stop

type plan = { parts : Campaign.config array; part_size : int; sampled : bool }

let sites_of (cfg : Campaign.config) =
  match cfg.Campaign.sites with Some s -> List.length s | None -> cfg.Campaign.n

let plan ?(sampled = false) parts =
  let parts = Array.of_list parts in
  let part_size = if Array.length parts = 0 then 0 else sites_of parts.(0) in
  if Array.exists (fun p -> sites_of p <> part_size) parts then
    invalid_arg "Driver.plan: parts differ in size";
  { parts; part_size; sampled }

let part_journal plan base k = if plan.sampled then Printf.sprintf "%s.s%d" base k else base

type journal = Fresh of string | Resume of string
type quarantine = Degrade | Fail
type result = { campaigns : Campaign.t array; exit_code : int }

let usage ?hint m = Diag.fail ~code:"usage" ?hint m

type mode =
  | Parent of { jobs : int; journal : journal option }
  | Worker of { range : int * int; journal : string }

let mode ~log ~jobs ~range ~journal ~resume =
  if jobs < 0 then usage "--jobs must be non-negative (0 uses the recommended core count)";
  let jobs =
    if jobs > 0 then jobs
    else begin
      let n = Shard.available_cores () in
      log (Printf.sprintf "--jobs 0: using %d core%s" n (if n = 1 then "" else "s"));
      n
    end
  in
  if range <> None && jobs > 1 then usage "--range and --jobs are mutually exclusive";
  let journal =
    match (journal, resume) with
    | Some _, Some _ ->
        usage ~hint:"--resume already appends new verdicts to the journals it loads"
          "--journal and --resume are mutually exclusive"
    | Some p, None -> Some (Fresh p)
    | None, Some p -> Some (Resume p)
    | None, None -> None
  in
  match (range, journal) with
  | None, journal -> Parent { jobs; journal }
  (* the supervisor always passes --journal, and a retried worker
     resumes it by itself *)
  | Some range, Some (Fresh journal) -> Worker { range; journal }
  | Some _, None -> usage "a --range worker needs --journal"
  | Some _, Some (Resume _) -> usage "--range workers resume their own --journal automatically"

(* The completed verdicts and part-local quarantined indices of a
   journal's entries, the first of which owns global index [first]. *)
let resume_lists ~first ~offset indexed =
  let completed, quarantined =
    Journal.partition ~first (Journal.contiguous ~first indexed)
  in
  (completed, List.map (fun g -> g - offset) quarantined)

let remove path = try Sys.remove path with Sys_error _ -> ()

let check_resume_mode plan ~supervised base =
  let serial =
    List.exists
      (fun k -> Sys.file_exists (part_journal plan base k))
      (List.init (Array.length plan.parts) Fun.id)
  in
  let chunks = List.exists (fun (_, _, suffix) -> suffix = "") (Shard.chunk_files base) in
  if supervised && serial && not chunks then
    usage ~hint:"resume it with --jobs 1"
      (Printf.sprintf "--resume %s holds serial journals but no --jobs chunk journals (%s.N)"
         base base)
  else if (not supervised) && chunks && not serial then
    usage ~hint:"resume it with --jobs N, N > 1"
      (Printf.sprintf "--resume %s holds --jobs chunk journals (%s.N)" base base)

(* ---- serial: every part in-process ---------------------------------- *)

let run_serial ~log ?journal plan tech c ~drives =
  let circuit = Halotis_netlist.Netlist.name c in
  let path k = Option.map (fun (Fresh b | Resume b) -> part_journal plan b k) journal in
  let resuming = match journal with Some (Resume _) -> true | _ -> false in
  (* A part whose journal is missing starts afresh — a failed supervised
     run journals only its clean parts — but a resume that finds no
     journal at all is an error, raised by Journal.load. *)
  let any_journal =
    List.exists
      (fun k -> Option.fold ~none:false ~some:Sys.file_exists (path k))
      (List.init (Array.length plan.parts) Fun.id)
  in
  Array.mapi
    (fun k part ->
      let completed, quarantined, writer =
        match path k with
        | None -> ([], [], None)
        | Some p when resuming && (Sys.file_exists p || not any_journal) ->
            let h, indexed = Journal.load p in
            Journal.check h ~circuit part;
            let completed, quarantined = resume_lists ~first:0 ~offset:0 indexed in
            log
              (Printf.sprintf "resuming from %s: %d verdicts already decided" p
                 (List.length completed + List.length quarantined));
            (completed, quarantined, Some (Journal.open_append p))
        | Some p -> ([], [], Some (Journal.open_new p (Journal.header_of ~circuit part)))
      in
      let on_verdict = Option.map (fun w i v -> Journal.write w i v) writer in
      let campaign =
        Campaign.run ?on_verdict { part with Campaign.completed; quarantined } tech c ~drives
      in
      Option.iter Journal.close writer;
      campaign)
    plan.parts

(* ---- supervised: the index space across worker processes ------------ *)

let write_merged path header ~offset indexed =
  let w = Journal.open_new ~sync_every:1024 path header in
  List.iter
    (fun (g, e) ->
      match e with
      | Journal.Verdict v -> Journal.write w (g - offset) v
      | Journal.Quarantined -> Journal.write_quarantine w (g - offset))
    indexed;
  Journal.close w

let run_supervised ~log ~quarantine ~scfg ~worker_argv ?journal plan tech c ~drives =
  let circuit = Halotis_netlist.Netlist.name c in
  let nparts = Array.length plan.parts and size = plan.part_size in
  let total = nparts * size in
  let part_of (h : Journal.header) =
    match h.Journal.jh_range with Some (lo, _) -> min (nparts - 1) (lo / size) | None -> 0
  in
  let check h = Journal.check h ~circuit ?range:h.Journal.jh_range plan.parts.(part_of h) in
  let mk_header ~range:((lo, _) as range) =
    Journal.header_of ~circuit ~range plan.parts.(lo / size)
  in
  let base, temp_dir =
    match journal with
    | Some (Fresh b | Resume b) -> (b, None)
    | None ->
        let d = Filename.temp_dir "halotis-campaign" "" in
        (Filename.concat d "journal", Some d)
  in
  (* a user's base keeps its chunk journals unless the run succeeds *)
  let keep = ref (temp_dir = None) in
  let cleanup () =
    List.iter
      (fun (_, p, suffix) -> if not (!keep && (suffix = "" || suffix = ".err")) then remove p)
      (Shard.chunk_files base);
    Option.iter
      (fun d ->
        try
          Array.iter (fun f -> remove (Filename.concat d f)) (Sys.readdir d);
          Sys.rmdir d
        with Sys_error _ -> ())
      temp_dir
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  log
    (Printf.sprintf "supervising %d sites across %d workers (chunks of %d)" total
       scfg.Supervisor.sv_jobs scfg.Supervisor.sv_chunk_sites);
  let outcome = Supervisor.run scfg ~total ~base ~worker_argv ~check ~mk_header ~log () in
  (let plural n = if n = 1 then "" else "s" and r = outcome.Supervisor.sv_retries in
   if r > 0 then
     log
       (Printf.sprintf "supervisor recovered %d worker failure%s (%d stall kill%s)" r
          (plural r) outcome.Supervisor.sv_kills
          (plural outcome.Supervisor.sv_kills)));
  let chunks = Array.make nparts [] in
  for id = outcome.Supervisor.sv_slots - 1 downto 0 do
    let p = Shard.journal_path base id in
    if Sys.file_exists p then begin
      let ((h, _) as j) = Journal.load p in
      chunks.(part_of h) <- j :: chunks.(part_of h)
    end
  done;
  let merged =
    Array.mapi
      (fun k part ->
        let first = k * size in
        let h, indexed =
          match chunks.(k) with
          | [] ->
              Diag.fail ~code:"journal-merge"
                (Printf.sprintf "no chunk journal covers sites [%d, %d)" first (first + size))
          | js -> Journal.merge js
        in
        Journal.check h ~circuit part;
        (* zero fresh sites: revalidates every journaled verdict against
           the deterministic site list and rebuilds the aggregate stats
           exactly as a serial run would *)
        let completed, quarantined = resume_lists ~first ~offset:first indexed in
        (indexed, Campaign.run { part with Campaign.completed; quarantined } tech c ~drives))
      plan.parts
  in
  let failed (_, cam) = quarantine = Fail && cam.Campaign.cam_quarantined <> [] in
  if temp_dir = None then
    Array.iteri
      (fun k ((indexed, _) as m) ->
        if not (failed m) then
          write_merged (part_journal plan base k)
            (Journal.header_of ~circuit plan.parts.(k))
            ~offset:(k * size) indexed)
      merged;
  keep := temp_dir = None && Array.exists failed merged;
  (Array.map snd merged, outcome.Supervisor.sv_exit_code)

(* ---- worker: one chunk of the index space --------------------------- *)

(* Fault injection, to test recovery, read from the environment so the
   supervisor tests, the CI chaos smoke job and bench/exp_supervise can
   crash and hang workers: after [HALOTIS_CHAOS_KILL] fresh verdicts
   tear the journal's last line and SIGKILL the worker, after
   [HALOTIS_CHAOS_HANG] stop heartbeating forever (each once per chunk,
   or once per file claimed from the [HALOTIS_CHAOS_TOKENS] directory);
   SIGKILL just before journaling global index [HALOTIS_CHAOS_POISON],
   on every attempt. *)
let chaos v = Option.bind (Sys.getenv_opt ("HALOTIS_CHAOS_" ^ v)) int_of_string_opt

(* One chaos event per claim: a token file from the bounding directory,
   or (without one) a per-chunk sentinel created O_EXCL so retries of
   the same chunk don't crash forever. *)
let chaos_claim ~journal =
  match Sys.getenv_opt "HALOTIS_CHAOS_TOKENS" with
  | Some dir -> (
      match Sys.readdir dir with
      | files ->
          Array.exists
            (fun f ->
              match Sys.remove (Filename.concat dir f) with
              | () -> true
              | exception Sys_error _ -> false)
            files
      | exception Sys_error _ -> false)
  | None -> (
      match
        Unix.openfile (journal ^ ".chaos") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_EXCL ] 0o644
      with
      | fd ->
          Unix.close fd;
          true
      | exception Unix.Unix_error _ -> false)

let chaos_die () = Unix.kill (Unix.getpid ()) Sys.sigkill

let run_worker ~log plan ~range:(lo, hi) ~journal tech c ~drives =
  let nparts = Array.length plan.parts and size = plan.part_size in
  if lo < 0 || lo >= hi then usage (Printf.sprintf "--range %d:%d: expected 0 <= LO < HI" lo hi);
  if hi > nparts * size then
    usage (Printf.sprintf "--range %d:%d out of bounds for %d sites" lo hi (nparts * size));
  if (hi - 1) / size <> lo / size then
    usage
      (Printf.sprintf "--range %d:%d must lie inside one part (%d parts of %d sites)" lo hi
         nparts size);
  let k = lo / size in
  let offset = k * size and cfg = plan.parts.(k) in
  if cfg.Campaign.limit <> None then usage "--limit-sites cannot be used inside a worker";
  let circuit = Halotis_netlist.Netlist.name c in
  let open_fresh () =
    ( [],
      [],
      Journal.open_new ~sync_every:1 journal
        (Journal.header_of ~circuit ~range:(lo, hi) cfg) )
  in
  let completed, quarantined, writer =
    if not (Sys.file_exists journal) then open_fresh ()
    else
      match Journal.load journal with
      | h, indexed ->
          Journal.check h ~circuit ~range:(lo, hi) cfg;
          let completed, quarantined = resume_lists ~first:lo ~offset indexed in
          log
            (Printf.sprintf "range [%d,%d): resuming %s: %d of %d entries kept" lo hi journal
               (List.length completed + List.length quarantined)
               (hi - lo));
          (completed, quarantined, Journal.open_append ~sync_every:1 journal)
      | exception Diag.Fail _ ->
          (* died inside the header write: nothing durable to keep *)
          open_fresh ()
  in
  let poison = chaos "POISON" and hang = chaos "HANG" and kill = chaos "KILL" in
  let fresh = ref 0 in
  let campaign =
    Campaign.run
      ~on_verdict:(fun idx v ->
        let g = idx + offset in
        if poison = Some g then chaos_die ();
        Journal.write writer g v;
        incr fresh;
        (match hang with
        | Some n when !fresh >= n && chaos_claim ~journal ->
            while true do
              Unix.sleep 3600
            done
        | _ -> ());
        match kill with
        | Some n when !fresh >= n && chaos_claim ~journal ->
            (* leave a torn final line behind: readers must cope with it *)
            let oc = open_out_gen [ Open_append ] 0o644 journal in
            output_string oc "v 99999 torn";
            flush oc;
            chaos_die ()
        | _ -> ())
      {
        cfg with
        Campaign.range = Some (lo - offset, hi - offset);
        completed;
        quarantined;
      }
      tech c ~drives
  in
  Journal.close writer;
  log
    (Printf.sprintf "range [%d,%d): %d sites done" lo hi
       (List.length campaign.Campaign.cam_verdicts))

let run ~log ?(quarantine = Degrade) ?(chunk_sites = 0) ?worker_timeout ?max_retries
    ~worker_argv mode plan tech c ~drives =
  match mode with
  | Worker { range; journal } ->
      run_worker ~log plan ~range ~journal tech c ~drives;
      None
  | Parent { jobs; journal } ->
      let nparts = Array.length plan.parts in
      let total = nparts * plan.part_size in
      let supervised = jobs > 1 && total > 0 in
      if jobs > 1 && Array.exists (fun p -> p.Campaign.limit <> None) plan.parts then
        usage ~hint:"chunking is per worker range under --jobs"
          "--limit-sites cannot be combined with --jobs";
      (match journal with
      | Some (Resume base) -> check_resume_mode plan ~supervised base
      | _ -> ());
      let campaigns, codes =
        if not supervised then (run_serial ~log ?journal plan tech c ~drives, [])
        else begin
          let chunk_sites =
            if chunk_sites > 0 then chunk_sites else Supervisor.auto_chunk_sites ~total ~jobs
          in
          if nparts > 1 && plan.part_size mod chunk_sites <> 0 then
            invalid_arg "Driver.run: chunk_sites must divide the part size";
          let scfg =
            try Supervisor.config ~chunk_sites ?worker_timeout ?max_retries ~jobs ()
            with Invalid_argument m -> usage m
          in
          let campaigns, code =
            run_supervised ~log ~quarantine ~scfg ~worker_argv ?journal plan tech c ~drives
          in
          (campaigns, [ code ])
        end
      in
      let degraded =
        if Array.exists (fun cam -> cam.Campaign.cam_quarantined <> []) campaigns then
          [ Stop.degraded_exit_code ]
        else []
      in
      Some { campaigns; exit_code = Stop.worst_exit_code (codes @ degraded) }
