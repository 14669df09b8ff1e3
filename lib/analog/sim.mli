(** Transient simulation of the macromodel network — the reproduction's
    stand-in for the paper's HSPICE runs.

    Explicit Euler over all gate output nodes with a fixed step
    (default 1 ps, well below every RC constant in the default
    technology); primary inputs follow their drive ramps analytically;
    node voltages are recorded every [record_every] steps. *)

type config = {
  tech : Halotis_tech.Tech.t;
  dt : Halotis_util.Units.time;  (** integration step, ps *)
  record_every : int;  (** store one sample every N steps *)
  t_stop : Halotis_util.Units.time;
}

val config :
  ?dt:Halotis_util.Units.time ->
  ?record_every:int ->
  t_stop:Halotis_util.Units.time ->
  Halotis_tech.Tech.t ->
  config
(** Defaults: dt 1 ps, record every 2 steps. *)

type trace = {
  sample_dt : Halotis_util.Units.time;
  volts : float array;  (** sample [i] is the voltage at [i * sample_dt] *)
}

type result = {
  circuit : Halotis_netlist.Netlist.t;
  run_config : config;
  traces : trace array;  (** per signal id *)
  steps : int;  (** integration steps executed *)
}

val run :
  config ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  result
(** @raise Invalid_argument on oscillating feedback (no DC fixed
    point) or a bad drive. *)

val trace : result -> string -> trace
(** @raise Not_found for unknown signal names. *)

val value_at : trace -> Halotis_util.Units.time -> Halotis_util.Units.voltage
(** Linear interpolation between samples. *)

val crossings :
  trace -> vt:Halotis_util.Units.voltage -> Halotis_wave.Digital.edge list
(** Interpolated threshold crossings, time-ordered. *)

val edges : result -> string -> Halotis_wave.Digital.edge list
(** Digitized view of one signal at threshold VDD/2. *)
