(** Variation-campaign reports: distributions over sampled corners.

    One [halotis vary] run re-executes the same strike list once per
    sampled {!Sampler} corner; this module aggregates the per-sample
    {!Halotis_fault.Campaign.verdict} lists into the quantities the
    workload exists for:

    - the {e masking-probability distribution}: per-sample masking
      rates summarized by p5/p25/p50/p75/p95 percentiles and the mean;
    - the {e corner-sensitive sites}: for each site of the shared
      strike list, how many samples classified it differently from the
      nominal corner — the glitches that die (or come alive) on which
      corners;
    - the optional {e TTF sweep} trajectory ({!Sweep.t}).

    Both renderings are deterministic functions of the value (no
    timestamps, no hash-ordered tables), so a fixed seed reproduces
    the report byte-for-byte — the golden contract the test suite
    holds [vary] to. *)

type sample = {
  vs_index : int;  (** sample index (the {!Sampler.sample} [index]) *)
  vs_fingerprint : string;
      (** the sampled overlay's content fingerprint — the corner's
          identity across processes and re-runs *)
  vs_propagated : int;
  vs_electrical : int;
  vs_logical : int;
  vs_timed_out : int;
  vs_masking_rate : float;
}

type percentiles = {
  pc_p5 : float;
  pc_p25 : float;
  pc_p50 : float;
  pc_p75 : float;
  pc_p95 : float;
  pc_mean : float;
}

type t = {
  vr_circuit : string;
  vr_engine : string;  (** campaign engine token *)
  vr_seed : int;  (** the shared campaign/sampling seed *)
  vr_sigmas : Sampler.sigmas;
  vr_stress_hours : float;
  vr_sites : int;  (** strikes per sample (the shared site list) *)
  vr_nominal : sample;  (** the empty-overlay campaign, index [-1] *)
  vr_samples : sample list;  (** in index order *)
  vr_flips : (int * int) list;
      (** (site index, number of samples whose outcome differs from
          nominal), descending by count then ascending by site; sites
          that never flip are omitted *)
  vr_ttf : Sweep.t option;
}

val make :
  circuit:string ->
  engine:string ->
  seed:int ->
  sigmas:Sampler.sigmas ->
  stress_hours:float ->
  nominal:Halotis_fault.Campaign.verdict list ->
  samples:(int * string * Halotis_fault.Campaign.verdict list) list ->
  ?ttf:Sweep.t ->
  unit ->
  t
(** [samples] pairs each sample's index and overlay fingerprint with
    its verdict list; every list must be site-aligned with [nominal]
    (same shared strike list, same order).
    @raise Invalid_argument when a sample's verdict count differs from
    the nominal one. *)

val masking_percentiles : t -> percentiles option
(** Nearest-rank percentiles of the per-sample masking rates ([None]
    with zero samples). *)

val to_string : t -> string
val to_text : t -> string
