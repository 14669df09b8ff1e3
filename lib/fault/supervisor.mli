(** Fault-tolerant campaign supervision — the only way a campaign runs
    in more than one process ([faults --jobs N] and [vary --jobs N]).

    The supervisor splits a campaign's global site enumeration into
    {e chunks} (sub-ranges, each with its own chunk journal) and
    dispatches them to a bounded pool of worker processes spawned
    through {!Shard}.  A worker dying — OOM kill, node eviction, a site
    whose injected run trips a simulator bug — costs at most its
    in-flight site:

    - {e heartbeats} — supervised workers fsync every verdict into
      their chunk journal, so the journal's size is the heartbeat: a
      worker whose journal stops changing size for [worker_timeout]
      seconds is killed and its chunk re-queued;
    - {e retry with backoff} — a crashed, killed or incompletely
      exited worker's chunk is re-queued after
      [backoff * 2^(attempt-1)] seconds; the journal already holds the
      completed prefix, so the retry resumes at the first unjournaled
      site.  A chunk that fails more than [max_retries] times aborts
      the campaign ([worker-retries]);
    - {e poison quarantine} — the {e blame site} of a failure is the
      first unjournaled site of the chunk.  When the same site is
      blamed three consecutive times, the supervisor writes a
      [q] record for it into the chunk journal and moves on: a
      [faults] campaign completes {e degraded}
      ({!Halotis_guard.Stop.degraded_exit_code}) instead of failing,
      with the quarantined sites listed explicitly in the report;
      [vary], which has no degraded report, fails naming the sample
      and site.

    Because every verdict is journaled under its global site index and
    retries replay into the same chunk journal, the merged campaign
    report is byte-identical to a serial [--jobs 1] run — quarantined
    sites are the only permitted delta, and they are enumerated.

    Chunk journals use {!Shard.journal_path} naming ([base.ID]), so an
    interrupted supervised campaign resumes: {!run} scans existing
    [base.N] files, adopts every one whose header carries a [! range]
    as a chunk — including the per-worker journals that releases with
    one-shot K/N shard workers left behind — and covers any missing
    indices with fresh chunks. *)

type config = {
  sv_jobs : int;  (** worker-pool size *)
  sv_chunk_sites : int;  (** max sites per chunk; [0] = auto (~4/worker) *)
  sv_worker_timeout : float;
      (** seconds without a chunk-journal size change before a stall kill *)
  sv_max_retries : int;  (** per-chunk failure cap before aborting *)
}

val config :
  ?chunk_sites:int ->
  ?worker_timeout:float ->
  ?max_retries:int ->
  jobs:int ->
  unit ->
  config
(** Defaults: auto chunk size, 30 s timeout, 10 retries.  The retry
    backoff (50 ms, doubling), quarantine after 3 consecutive blames
    and the 20 ms pool polling period are fixed.
    @raise Invalid_argument on non-positive [jobs]/[worker_timeout] or
    negative [chunk_sites]/[max_retries]. *)

type outcome = {
  sv_exit_code : int;
      (** {!Halotis_guard.Stop.worst_exit_code} over the final chunk
          exit codes, with {!Halotis_guard.Stop.degraded_exit_code}
          folded in when anything was quarantined.  Recovering a chunk
          after retries is {e not} an error — only final outcomes
          count. *)
  sv_retries : int;  (** total worker failures handled (respawns) *)
  sv_kills : int;  (** stall kills among them *)
  sv_slots : int;
      (** [1 + max chunk id] — pass as [jobs] to {!Shard.load_merged}
          to pick up every chunk journal *)
}

val auto_chunk_sites : total:int -> jobs:int -> int
(** The chunk size [sv_chunk_sites = 0] resolves to: about four chunks
    per worker, at least 1. *)

val plan_chunks : total:int -> chunk_sites:int -> (int * int) list
(** The half-open ranges a fresh (no existing journals) supervised
    campaign splits [\[0, total)] into, in order: every chunk holds
    [chunk_sites] sites except a shorter final one.  Exposed for
    tests.
    @raise Invalid_argument on negative [total] or [chunk_sites < 1]. *)

val run :
  config ->
  total:int ->
  base:string ->
  worker_argv:(range:int * int -> journal:string -> string list) ->
  check:(Journal.header -> unit) ->
  mk_header:(range:int * int -> Journal.header) ->
  ?log:(string -> unit) ->
  unit ->
  outcome
(** Supervises a campaign of [total] global sites.  [worker_argv]
    builds the complete argv (program name at its head) of a worker
    owning [range] and journaling to [journal] — a {!Driver.Worker}
    process, which fsyncs every verdict.
    [check] validates a pre-existing chunk journal's header against
    the campaign (raise {!Halotis_util.Diag.Fail} [journal-mismatch]
    on a stale file); [mk_header] builds the header the supervisor
    uses when it must create a chunk journal itself to write a
    quarantine record.  [log] receives progress and
    [worker-stall]/[site-quarantined] warning lines (default:
    silent); dead workers' stderr capture tails
    ({!Shard.stderr_tail}) are replayed into those warnings.

    On return every chunk journal covers its range (verdicts plus [q]
    records); the caller merges them ({!Driver} per part, or
    {!Shard.load_merged} [~jobs:outcome.sv_slots] for one part).
    @raise Halotis_util.Diag.Fail ([worker-retries]) when a chunk
    exhausts [sv_max_retries]. *)
