(** ASCII timing diagrams — the textual equivalent of the paper's
    waveform figures (Figs. 1, 6, 7). *)

type lane = {
  label : string;
  initial : bool;
  lane_edges : Halotis_wave.Digital.edge list;
}

val lane_of_waveform :
  label:string -> vt:Halotis_util.Units.voltage -> Halotis_wave.Waveform.t -> lane

val lane_of_edges :
  label:string -> initial:bool -> Halotis_wave.Digital.edge list -> lane

val timing_diagram :
  ?width:int ->
  t0:Halotis_util.Units.time ->
  t1:Halotis_util.Units.time ->
  lane list ->
  string
(** Renders one row per lane: ['-'] high, ['_'] low, ['|'] at an edge;
    a time axis in ns underneath.  Default width 100 columns. *)

val voltage_lane :
  ?width:int ->
  t0:Halotis_util.Units.time ->
  t1:Halotis_util.Units.time ->
  vdd:Halotis_util.Units.voltage ->
  label:string ->
  (Halotis_util.Units.time -> Halotis_util.Units.voltage) ->
  string
(** Renders a sampled analog trace as a small character plot (five
    vertical buckets) — used to show runt pulses that a
    digital lane cannot express. *)
