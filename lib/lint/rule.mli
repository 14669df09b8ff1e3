(** The lint rule registry: every rule's id, default severity, domain
    and one-line documentation live here, so the CLI's [--list-rules],
    [doc/lint.md] and the per-domain checkers cannot drift apart. *)

type t = {
  id : string;  (** stable id: two-letter domain prefix + number *)
  domain : Finding.domain;
  severity : Finding.severity;  (** default; overridable per run *)
  doc : string;  (** one line, used verbatim in docs and [--list-rules] *)
  example : string;  (** a terse trigger, used in the doc/lint.md table *)
}

(** Netlist structure. *)

val nl001 : t  (** undriven signal *)

val nl002 : t  (** dangling internal signal *)

val nl003 : t  (** combinational feedback (one finding per SCC) *)

val nl004 : t  (** unused primary input *)

val nl005 : t  (** fanout above the configured threshold *)

val nl006 : t  (** gate unreachable from any primary input *)

val nl007 : t  (** gate output fixed by tie cells (foldable) *)

val nl008 : t  (** feedback loop with inverting parity: oscillation risk *)

val nl020 : t  (** survival analysis proves every SET site filtered: degenerate *)

(** Technology / delay-model parameters. *)

val tk001 : t  (** non-positive output slope [tau_out] *)

val tk002 : t  (** non-positive degradation [tau] (eq. 2) *)

val tk003 : t  (** negative degradation [T0] (eq. 3) *)

val tk004 : t  (** input threshold VT outside (0, VDD) *)

val tk005 : t  (** non-positive conventional delay [tp0] *)

val tk006 : t  (** rise/fall delay asymmetry beyond the sanity bound *)

val tk007 : t  (** DDM degradation window admits chain pulse amplification *)

(** Liberty libraries. *)

val lb001 : t  (** cell missing timing arcs or tables *)

val lb002 : t  (** delay/transition table non-monotone in load *)

val lb003 : t  (** linear-model fit residual above the bound *)

(** Stimuli. *)

val st001 : t  (** drive bound to a non-primary-input signal *)

val st002 : t  (** change instants not strictly increasing *)

val st003 : t  (** pulse narrower than the input slope (runt) *)

val all : t list
(** Registry order: NL*, TK*, LB*, ST*. *)

val find : string -> t option
(** Case-insensitive lookup by id. *)

(** {2 Per-run configuration} *)

type config = {
  overrides : (string * [ `Off | `On | `Severity of Finding.severity ]) list;
      (** applied left to right; the last entry matching a rule wins *)
  fanout_threshold : int;  (** NL005: max load pins per signal *)
  asymmetry_bound : float;  (** TK006: max rise/fall delay ratio *)
  rmse_bound : float;  (** LB003: max fit RMSE, ps *)
  loads : float list;  (** representative output loads, fF *)
  slopes : float list;  (** representative input slopes, ps *)
}

val default_config : config
(** Everything enabled at registry severities; fanout threshold 32,
    asymmetry bound 3x, RMSE bound 25 ps, loads [{5, 20, 80}] fF,
    slopes [{50, 200}] ps. *)

val enabled : config -> t -> bool

val emit :
  config -> t -> Finding.location -> ('a, Format.formatter, unit, Finding.t option) format4 -> 'a
(** [emit config rule loc fmt ...] is [Some finding] carrying the
    configured severity, or [None] when the rule is disabled. *)
