(** Append-only campaign checkpoint journal.

    A campaign that dies minutes in loses every verdict it computed;
    the journal makes the work durable.  The writer appends one line
    per verdict as {!Campaign.run}'s [on_verdict] hook fires, fsyncing
    every [sync_every] lines, so after a crash or kill at any point the
    file holds a (possibly truncated) prefix of the campaign.
    [halotis faults --resume] loads it, revalidates the header against
    the requested campaign, and hands the verdicts to {!Campaign.run}'s
    [completed] — producing a final report byte-identical to an
    uninterrupted run.

    Format (line-oriented text, one record per line):
    - [# halotis-faults journal v3] — magic first line (v1 files, which
      lack the [PRUNE] token, and v2 files, which predate quarantine
      records, still load);
    - [! circuit NAME] and
      [! params ENGINE SEED N WIDTH SLOPE T_STOP W0 W1 PRUNE] — the
      campaign fingerprint (floats printed with [%h], lossless).
      [PRUNE] is always [-]: static campaign pruning was removed, and a
      journal whose [PRUNE] is [p] is refused;
    - [! range LO HI] — optional: the global site-index range a shard
      worker owns (absent from serial journals, whose bytes are
      unchanged from the pre-sharding format);
    - [v IDX SIGNAL GATE POL AT OUTCOME PO_DELTA FIRST_DIFF 7xCOUNTER STOP]
      — one verdict: the {e global} site index, site ids, hex-float
      strike instant, outcome token, the stats delta and a stop token
      ([-] = completed);
    - [q IDX] — site [IDX] was quarantined by the campaign supervisor
      (it repeatedly crashed or hung workers) and owns no verdict: the
      explicit record of a degraded campaign (v3).

    {!load} tolerates a torn final line (the crash wrote half a record)
    by discarding it; any earlier corruption is an error.  Shard
    journals from one campaign {!merge} by global index into the serial
    journal's record stream; {!contiguous} then recovers the plain
    entry list (or pinpoints the missing site after a worker died).

    A supervised worker's chunk journal is also its heartbeat: the
    worker fsyncs every verdict, and the supervisor watches the file's
    size. *)

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
      (** the shard's global site-index range [\[lo, hi)]; [None] for a
          serial (whole-campaign) journal.
          [Campaign.config.incremental] is deliberately absent from the
          fingerprint: cone re-simulation is result-invariant, so a
          journal resumes across incremental modes *)
  jh_overlay : string option;
      (** {!Halotis_tech.Param_overlay.fingerprint} of the campaign's
          parameter overlay, or [None] for the nominal (empty) corner.
          Nominal journals carry no overlay token at all, so their
          bytes are unchanged from the pre-overlay format — and a
          zero-sigma [vary] sample journal is byte-identical to the
          plain [faults] one. *)
}

val header_of : circuit:string -> ?range:int * int -> Campaign.config -> header

val check : header -> circuit:string -> ?range:int * int -> Campaign.config -> unit
(** Validates the journal fingerprint against the campaign about to run,
    including the shard range (default: expect a serial journal).
    @raise Halotis_util.Diag.Fail ([journal-mismatch]) naming the
    first campaign parameter that differs. *)

type entry =
  | Verdict of Campaign.verdict  (** a decided site *)
  | Quarantined
      (** the supervisor gave up on this site: no verdict exists, and
          the campaign report is degraded but whole otherwise *)

type writer

val open_new : ?sync_every:int -> string -> header -> writer
(** Creates (or truncates) the journal, writes and fsyncs the header.
    [sync_every] (default 8) is how many verdicts may sit unsynced. *)

val open_append : ?sync_every:int -> string -> writer
(** Opens an existing journal for appending after a {!load}; writes
    nothing until {!write}. *)

val write : writer -> int -> Campaign.verdict -> unit
(** Appends verdict line [IDX]; fsyncs when the unsynced count reaches
    [sync_every]. *)

val write_quarantine : writer -> int -> unit
(** Appends a quarantine record for site [IDX] — written by the
    supervisor, never by a worker. *)

val close : writer -> unit
(** Final flush + fsync + close. *)

val cursor_path : string -> string
(** ["journal.cursor"], a name kept only for the benchmark harness
    ([perfbench/]), which removes the file: nothing writes it any more.
    It will be deleted in the next change to that harness. *)

val load : string -> header * (int * entry) list
(** Parses a journal: the header and the entries paired with their
    global site indices, which must be strictly increasing (a shard
    journal starts at its range's [lo], not 0).  A torn final line is
    silently dropped.
    @raise Halotis_util.Diag.Fail ([journal-parse]) on a missing or
    malformed file, or one written by a statically pruned campaign. *)

val contiguous : first:int -> (int * entry) list -> entry list
(** Checks the indices run [first, first+1, ...] without gaps and drops
    them — the bridge from {!load}/{!merge} output to
    {!Campaign.run}'s [completed]/[quarantined] (via {!partition}).
    @raise Halotis_util.Diag.Fail ([journal-merge]) naming the first
    missing site. *)

val partition : first:int -> entry list -> Campaign.verdict list * int list
(** Splits a {!contiguous} entry list (whose first entry owns global
    index [first]) into the completed verdicts, in order, and the
    global indices of the quarantined sites — the two inputs
    {!Campaign.run} resumes from. *)

val merge :
  (header * (int * entry) list) list ->
  header * (int * entry) list
(** Merges shard journals from one campaign into a single index-sorted
    record stream (the serial journal's content).  Headers must agree
    on everything but [jh_range] (the result's is [None]); records
    sharing an index must be byte-identical (overlapping re-runs
    collapse, disagreement is fatal).  Gaps are allowed here — a dead
    worker's missing slice surfaces in {!contiguous}, after the
    survivors' work has been preserved.
    @raise Halotis_util.Diag.Fail ([journal-merge]) on an empty list,
    mismatched headers or conflicting records. *)
