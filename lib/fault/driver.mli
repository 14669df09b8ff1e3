(** The campaign driver: the one place a fault or variation campaign is
    planned, run — serially in-process, or across supervised worker
    processes — journaled, merged and cleaned up.  [halotis faults] and
    [halotis vary] are thin shells over it.

    A {!plan} is an array of equal-sized {e parts}, each a
    {!Campaign.config} with a fixed site list.  Site [i] of part [k] owns
    the global index [k * part_size + i]: a fault campaign is one part, a
    variation campaign one part per sampled corner, replaying the same
    strike list.

    {b Journals.}  Serially, part [k] journals to the base path itself,
    or to [BASE.sK] in a sampled plan.
    Under supervision ({!Supervisor}) workers journal to chunk journals
    [BASE.ID] ({!Shard.journal_path}); when the pool is done the driver
    merges each part's chunk journals, revalidates them through
    {!Campaign.run} with zero fresh sites, and writes every part's
    serial journal byte-identical to a serial run's — so a campaign's
    journals, like its report, do not depend on [jobs].

    {b Resume stays within a mode.}  A supervised resume of a base that
    holds only serial journals, and a serial resume of a base that holds
    only chunk journals, are usage errors naming the mode to use.

    {b Cleanup.}  Chaos sentinels are removed on every exit.  Without a
    journal the campaign runs on a private temporary directory that is
    removed on every exit, failures included.  A user's base keeps its
    chunk journals and worker stderr captures when the run fails, so it
    can be resumed and diagnosed; on success they are removed.
    Supervision files are listed by {!Shard.chunk_files}. *)

type plan

val plan : ?sampled:bool -> Campaign.config list -> plan
(** The parts, in global-index order.  [sampled] (default [false])
    names part [k]'s serial journal [BASE.sK] instead of [BASE].
    @raise Invalid_argument when the parts differ in size (the number
    of explicit sites, or [n] when sampled). *)

type journal =
  | Fresh of string  (** start new journals at this base path *)
  | Resume of string  (** resume the journals at this base path *)

type quarantine =
  | Degrade
      (** a quarantined site leaves its part degraded but whole: the
          merged journal carries its [q] record *)
  | Fail
      (** the caller fails the run: a part with a quarantined site gets
          no merged journal and the chunk journals are kept, so a
          serial resume re-simulates it *)

type result = {
  campaigns : Campaign.t array;  (** one per part, in order *)
  exit_code : int;
      (** {!Halotis_guard.Stop.worst_exit_code} of the workers' exit
          codes, with {!Halotis_guard.Stop.degraded_exit_code} folded in
          when any part has quarantined sites *)
}

type mode =
  | Parent of { jobs : int; journal : journal option }
      (** run the campaign: in-process with [jobs = 1], else across
          [jobs] supervised worker processes *)
  | Worker of { range : int * int; journal : string }
      (** be one of those workers: simulate global indices [\[lo, hi)],
          which must lie inside one part, journaling each verdict under
          its global index into the chunk journal [journal], fsynced per
          verdict (the journal's growth is the supervisor's heartbeat).
          An existing chunk journal is resumed, quarantine records
          included.  The [HALOTIS_CHAOS_KILL], [_HANG], [_POISON] and
          [_TOKENS] environment variables inject worker deaths, hangs
          and poison sites, to test recovery. *)

val mode :
  log:(string -> unit) ->
  jobs:int ->
  range:(int * int) option ->
  journal:string option ->
  resume:string option ->
  mode
(** The mode the campaign flags ([--jobs], [--range], [--journal],
    [--resume]) ask for.  [jobs = 0] asks the OCaml runtime how many
    cores to use ({!Shard.available_cores}) and logs the choice.  A
    [range] makes a {!Worker}, which needs a fresh [journal]: a retried
    worker resumes its chunk journal by itself.
    @raise Halotis_util.Diag.Fail ([usage]) on a negative [jobs], a
    [range] with [jobs > 1], both [journal] and [resume], or a [range]
    without [journal] or with [resume]. *)

val run :
  log:(string -> unit) ->
  ?quarantine:quarantine ->
  ?chunk_sites:int ->
  ?worker_timeout:float ->
  ?max_retries:int ->
  worker_argv:(range:int * int -> journal:string -> string list) ->
  mode ->
  plan ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  result option
(** Runs the plan; [None] for a {!Worker}, which renders nothing.
    With [jobs = 1] (or nothing to simulate) every part runs
    in-process, journaled with the serial discipline; a part's
    [Campaign.config.limit] parks it early ([cam_complete = false]).
    With [jobs > 1] the whole index space goes to {!Supervisor.run},
    whose workers are [worker_argv] — a {!Worker} process of the same
    plan.  [chunk_sites] (default [0] = about four chunks per
    worker) must divide the part size of a multi-part plan, so no chunk
    straddles two parts; [worker_timeout] and [max_retries]
    default as in {!Supervisor.config}.  [quarantine]
    defaults to {!Degrade}.  [log] receives progress and supervision
    warnings.  Never exits the process.
    @raise Halotis_util.Diag.Fail on a journal that does not match the
    plan, a resume across modes or a missing resume journal ([usage],
    [journal-parse], [journal-mismatch]), invalid supervision settings
    ([usage]), or a chunk out of retries ([worker-retries]); for a
    {!Worker}, ([usage]) on a range outside the plan or across parts
    and ([journal-mismatch]) on a foreign chunk journal. *)
