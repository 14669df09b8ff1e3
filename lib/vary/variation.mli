(** The Monte-Carlo variation campaign ([halotis vary]): the nominal
    campaign's strike list replayed at sampled parameter corners, as a
    {!Halotis_fault.Driver} plan of one part (and one supervisor chunk)
    per sample. *)

val run :
  log:(string -> unit) ->
  worker_argv:(range:int * int -> journal:string -> string list) ->
  samples:int ->
  sigmas:Sampler.sigmas ->
  stress_hours:float ->
  ttf:bool ->
  Halotis_fault.Driver.mode ->
  Halotis_fault.Campaign.config ->
  Halotis_tech.Tech.t ->
  Halotis_netlist.Netlist.t ->
  drives:(Halotis_netlist.Netlist.signal_id * Halotis_engine.Drive.t) list ->
  Vary_report.t option
(** Runs the variation campaign of the nominal campaign [cfg]: its
    strike list replayed at each sample's corner, which takes the place
    of [cfg.overlay].  Sample [k] is {!Sampler.sample} at
    [(cfg.seed, k)], aged [stress_hours].  The nominal campaign is the
    report's flip reference; [ttf] adds the {!Sweep} from its first
    electrically masked strike (logged and skipped when there is none).
    [log] receives each sample's summary.  A
    {!Halotis_fault.Driver.Worker} returns [None]: it draws the strike
    list with {!Halotis_fault.Campaign.strikes} and simulates only its
    chunk, never the nominal campaign.
    @raise Halotis_util.Diag.Fail as {!Halotis_fault.Driver.run}, and
    ([site-quarantined]) when a strike crashed or hung its worker
    repeatedly: there is no degraded variation report. *)
