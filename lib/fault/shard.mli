(** Process plumbing for the campaign {!Supervisor}.

    A campaign's site enumeration is deterministic (seeded PRNG or an
    exhaustive grid), so worker processes can share it without any
    coordination: each owns a contiguous global index range and
    journals its verdicts — with their global indices — into its own
    chunk journal ({!journal_path}).  {!Supervisor.run} is the only
    caller of {!spawn}; it decides the ranges and watches the workers,
    and {!Driver} merges their journals.

    This module holds what the supervisor needs from the operating
    system: the core count, worker spawn via
    [Unix.create_process], stderr capture and the journal/capture file
    naming.  The argv a worker receives is the caller's business — the
    CLI builds it for a {!Driver.Worker} process. *)

val available_cores : unit -> int
(** The number of cores this process should use — what [--jobs 0]
    resolves to: the OCaml runtime's
    [Domain.recommended_domain_count], at least 1 and at most the
    runtime's domain limit (128 on 64-bit hosts). *)

val journal_path : string -> int -> string
(** [journal_path base k] is ["base.k"] — where chunk [k]'s journal
    lives. *)

val stderr_path : string -> int -> string
(** [stderr_path base k] is ["base.k.err"] — where chunk [k]'s worker
    stderr lands when the caller passes it to {!spawn}. *)

val spawn : stderr_file:string -> string list -> int
(** [spawn ~stderr_file argv] forks a worker by re-executing
    [Sys.executable_name] with [argv] (complete, including the program
    name at its head) and returns its pid; the child inherits
    stdin/stdout, and its stderr goes to a fresh capture file
    [stderr_file] (created/truncated). *)

val chunk_files : string -> (int * string * string) list
(** Every supervision file beside [base], as [(id, path, suffix)]: the
    chunk journals [base.ID] (suffix [""]), their stderr captures and
    chaos sentinels ([".err"], [".chaos"]), and the progress cursors
    ([".cursor"]) that releases before the journal-size heartbeat wrote
    and nothing reads any more, in no particular order. *)

val stderr_tail : string -> string list
(** The last five non-blank lines of a worker's stderr
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
    chunks must share one campaign fingerprint: {!Driver} groups a
    multi-part plan's chunk journals by part instead.
    @raise Halotis_util.Diag.Fail ([journal-merge]) when no chunk
    journal exists at all, or on merge conflicts. *)
