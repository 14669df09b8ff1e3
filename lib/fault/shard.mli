(** Process plumbing for the campaign {!Supervisor}.

    A campaign's site enumeration is deterministic (seeded PRNG or an
    exhaustive grid), so worker processes can share it without any
    coordination: each owns a contiguous global index range and
    journals its verdicts — with their global indices — into its own
    chunk journal ({!journal_path}).  {!Supervisor.run} is the only
    caller of {!spawn}; it decides the ranges, watches the workers and
    merges their journals with {!load_merged}.

    This module holds what the supervisor needs from the operating
    system: core-count detection, worker spawn via
    [Unix.create_process], stderr capture and the journal/capture file
    naming.  The argv a worker receives is the caller's business — the
    CLI reconstructs its own campaign flags. *)

val available_cores : unit -> int
(** The number of processor cores available to this process — what
    [faults --jobs 0] resolves to.  Asks [getconf _NPROCESSORS_ONLN]
    first, then [sysctl -n hw.ncpu] (the BSD/macOS spelling), then
    counts [/proc/cpuinfo] processor lines, and returns [1] when no
    source answers.  Never raises. *)

val detect_cores :
  ?getconf:(unit -> string option) ->
  ?sysctl:(unit -> string option) ->
  ?cpuinfo:(unit -> string option) ->
  unit ->
  int
(** {!available_cores} with injectable readers, for testing the
    fallback chain without the host's real core count: [getconf] and
    [sysctl] yield the command's first output line (or [None] on
    failure), [cpuinfo] the whole file's contents.  A reader whose
    output does not parse to a count [>= 1] falls through to the
    next. *)

val parse_core_count : string -> int option
(** Parses one command-output line into a core count: whitespace is
    trimmed, and anything that is not an integer [>= 1] is [None]. *)

val count_cpuinfo_processors : string -> int option
(** Counts [processor] lines in [/proc/cpuinfo]-format contents;
    [None] when there are none (the caller falls through). *)

val journal_path : string -> int -> string
(** [journal_path base k] is ["base.k"] — where chunk [k]'s journal
    lives. *)

val stderr_path : string -> int -> string
(** [stderr_path base k] is ["base.k.err"] — where chunk [k]'s worker
    stderr lands when the caller passes it to {!spawn}. *)

type worker = {
  wk_index : int;
  wk_range : int * int;
  wk_journal : string;
  wk_pid : int;
}

val spawn :
  ?stderr_file:string ->
  argv:string list ->
  index:int ->
  range:int * int ->
  journal:string ->
  unit ->
  worker
(** Forks worker [index] by re-executing [Sys.executable_name] with
    [argv] (complete, including the program name at its head); the
    child inherits stdin/stdout, and stderr too unless [stderr_file]
    redirects it into a fresh capture file (created/truncated). *)

val stderr_tail : ?lines:int -> string -> string list
(** The last [lines] (default 5) non-blank lines of a worker's stderr
    capture file; [[]] when the file is missing or empty.  Replayed
    into the supervisor's diagnostics after a worker dies. *)

val status_to_string : Unix.process_status -> string
(** ["exit 0"], ["signal -9"], ... for progress messages. *)

val load_merged :
  base:string -> jobs:int -> Journal.header * (int * Journal.entry) list
(** Loads every existing chunk journal [base.0 .. base.(jobs-1)] (pass
    the supervisor's [sv_slots] as [jobs]) and {!Journal.merge}s them.
    Files that do not exist (a worker died before writing its header)
    are skipped — the gap surfaces in {!Journal.contiguous}.  The
    chunks must share one campaign fingerprint: [vary], whose samples
    carry different overlays, loads its chunk journals one by one.
    @raise Halotis_guard.Diag.Fail ([journal-merge]) when no chunk
    journal exists at all, or on merge conflicts. *)
