(* What every workload receives and returns. *)

type ctx = {
  seed : int;
  seconds : float;  (** length of the measured loop *)
  tiny : bool;  (** self-test sizes: same code paths, seconds of work at most *)
  work_dir : string;  (** scratch directory inside the checkout *)
  cli : string;  (** the [halotis] CLI binary *)
}

type outcome = {
  params : (string * string) list;  (** generator parameters, as given *)
  setup : float list;  (** seconds until measured work can start, one per set-up *)
  work : float list;  (** headline rate, one sample per repetition *)
  ref_work : float list;  (** comparison-path rate on the same inputs *)
  latency : Meas.hist;  (** microseconds per unit of headline work *)
  attempted : int;
  failed : int;
  checks : (string * string) list;
      (** host-independent counters and output digests: equal on every
          run with the same seed and sizes *)
  layer : (string * float) list;  (** per-layer metrics; meaningful when traced *)
}

(* The loop every workload runs: repeat [f] until [seconds] have
   passed, at least once.  [f] calls Calib.tick before each unit of work
   it times. *)
let repeat_for seconds f =
  let deadline = Meas.now () +. seconds in
  let rec go k =
    f k;
    if Meas.now () < deadline then go (k + 1)
  in
  go 0

(* [k] timed set-ups, each starting from a collected heap so that
   garbage left by earlier work is not charged to it, and each scaled
   by the host's speed measured just before it. *)
let setups k f =
  List.init k (fun _ ->
      Gc.full_major ();
      Calib.tick ();
      snd (Calib.time f))

let ok_or_fail what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

let stats_checks prefix (s : Halotis_engine.Stats.t) =
  let open Halotis_engine.Stats in
  [
    (prefix ^ "events_processed", string_of_int s.events_processed);
    (prefix ^ "events_scheduled", string_of_int s.events_scheduled);
    (prefix ^ "events_filtered", string_of_int s.events_filtered);
    (prefix ^ "transitions_emitted", string_of_int s.transitions_emitted);
  ]

(* The kernel counters as per-layer metrics. *)
let stats_layer (s : Halotis_engine.Stats.t) =
  let open Halotis_engine.Stats in
  [
    ("events_processed", float_of_int s.events_processed);
    ("events_scheduled", float_of_int s.events_scheduled);
    ("events_filtered", float_of_int s.events_filtered);
    ("stale_skipped", float_of_int s.stale_skipped);
    ("transitions_emitted", float_of_int s.transitions_emitted);
    ("noop_evaluations", float_of_int s.noop_evaluations);
  ]

(* Runtime counters over a measured window. *)
let gc_layer (g0 : Gc.stat) (g1 : Gc.stat) ~events =
  [
    ( "minor_words_per_event",
      if events = 0 then 0. else (g1.Gc.minor_words -. g0.Gc.minor_words) /. float_of_int events );
    ("major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
    ("top_heap_mb", float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]

let median_of name = Meas.median (Trace.durations name)
