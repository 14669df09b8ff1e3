(** The [halotis serve] daemon: sessions, dispatch and transports.

    One server owns one {!Circuit_cache} and a configuration of
    per-session guardrail defaults.  Each connection gets its own
    session table, sequential request ids (1, 2, 3, ...) and hello
    gate; {!handle_line} is the pure request-line to response-line
    function every transport (stdio, unix socket, in-process tests and
    benches) shares. *)

type config = {
  cf_cache_size : int;  (** compiled-circuit LRU capacity *)
  cf_max_events : int option;  (** default per-session event budget *)
  cf_max_transitions : int option;
      (** default per-session transition (memory) budget *)
  cf_watchdog : bool;  (** oscillation watchdog on by default? *)
  cf_tech : Halotis_tech.Tech.t;
}

val default_config : unit -> config
(** Default technology library, cache capacity 8, 10M events, 5M
    transitions, watchdog on — serve sessions are guarded by default
    (interactive sessions have no natural horizon). *)

type t

val create : config -> t
val cache : t -> Circuit_cache.t

type conn
(** One client connection: session table, expected next id, hello
    state. *)

val connect : t -> conn

val handle_line : conn -> string -> string
(** Maps one request line to one response line (no trailing newline).
    Never raises: parse failures, protocol violations and
    {!Halotis_util.Diag.Fail} all become error responses. *)

val serve_stdio : t -> unit

val serve_socket : t -> path:string -> unit
(** Binds a unix-domain socket at [path] (replacing a stale file),
    accepts connections sequentially, and removes the socket on exit.
    A [shutdown] request stops the accept loop after its connection
    closes. *)
