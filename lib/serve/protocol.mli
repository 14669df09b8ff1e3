(** The [halotis serve] wire protocol: newline-delimited JSON.

    Each request is one compact JSON object on one line carrying a
    sequential ["id"] (1, 2, 3, ... per connection) plus an ["op"];
    each response is one line echoing that id with either a ["result"]
    or a structured ["error"].  The first request of a connection must
    be [hello] with a protocol [version] the server supports
    ({!version}); everything else is rejected until then.

    This module is pure data: requests/responses to and from
    {!Halotis_util.Json.t}, no I/O.  The QCheck suite round-trips
    {!request_of_json} over {!request_to_json} for every constructor. *)

val version : int
(** The protocol generation this build speaks (1). *)

type circuit_source =
  | Path of string  (** server-side file path, [.hnl] or [.bench] *)
  | Inline of string  (** HNL source text carried in the request *)

type load = {
  ld_circuit : circuit_source;
  ld_engine : string;  (** ["ddm"] or ["cdm"]; sessions are waveform-engine only *)
  ld_stim : string option;  (** optional server-side [.hsv] stimulus path *)
  ld_t_stop : float option;  (** session horizon, ps *)
  ld_max_events : int option;  (** per-session override of the server default *)
  ld_max_transitions : int option;  (** per-session override of the memory cap *)
  ld_watchdog : bool option;  (** per-session override of the watchdog default *)
}

type query =
  | Q_edges of string option
      (** digitized edges of one signal, or of every primary output *)
  | Q_waveform of string  (** raw ramp segments of one signal *)
  | Q_offenders of int  (** the [n] busiest signals *)
  | Q_stats  (** engine counters, stop reason, session clock *)

type upto =
  | Upto of float  (** absolute target instant, ps *)
  | Dt of float  (** step relative to the session frontier *)

type request =
  | Hello of int  (** protocol version the client speaks *)
  | Load of load  (** open a session; replies with its id *)
  | Set_input of {
      si_session : int;
      si_signal : string;
      si_at : float;
      si_level : bool;
      si_slope : float option;  (** ramp slope, ps; server default if absent *)
    }
  | Advance of { ad_session : int; ad_upto : upto }
  | Query of { qu_session : int; qu_query : query }
  | Inject of {
      in_session : int;
      in_signal : string;
      in_at : float;
      in_width : float;
      in_slope : float option;
      in_up : bool;  (** [true]: rising leading edge (an "up" SET pulse) *)
    }
  | Close of int
  | Cache_stats
  | Shutdown

val request_of_json : Halotis_util.Json.t -> (request, string) result
(** Ignores an ["id"] field if present.  Total inverse of
    {!request_to_line}'s encoding. *)

type error = { err_code : string; err_message : string }
(** Protocol error reply: a stable machine code (["parse"],
    ["protocol"], ["bad-request"], ["unknown-session"], or a
    {!Halotis_util.Diag} code such as ["netlist-parse"] /
    ["unknown-signal"] / ["past-time"]) plus a human message. *)

type response = { rp_id : int option; rp_payload : (Halotis_util.Json.t, error) result }
(** [rp_id] is [None] only when the request line was unparseable (no id
    could be recovered). *)

val ok : id:int -> Halotis_util.Json.t -> response
val err : ?id:int -> code:string -> string -> response
val response_of_json : Halotis_util.Json.t -> (response, string) result

val request_to_line : id:int -> request -> string
(** One compact line (no trailing newline), ["id"] first. *)

val response_to_line : response -> string
