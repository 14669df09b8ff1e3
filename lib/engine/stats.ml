module Stop = Halotis_guard.Stop
module Json = Halotis_util.Json

type t = {
  mutable events_scheduled : int;
  mutable events_processed : int;
  mutable events_filtered : int;
  mutable stale_skipped : int;
  mutable transitions_emitted : int;
  mutable transitions_annulled : int;
  mutable noop_evaluations : int;
  mutable stopped_by : Stop.t;
}

let create () =
  {
    events_scheduled = 0;
    events_processed = 0;
    events_filtered = 0;
    stale_skipped = 0;
    transitions_emitted = 0;
    transitions_annulled = 0;
    noop_evaluations = 0;
    stopped_by = Stop.Completed;
  }

let copy t =
  {
    events_scheduled = t.events_scheduled;
    events_processed = t.events_processed;
    events_filtered = t.events_filtered;
    stale_skipped = t.stale_skipped;
    transitions_emitted = t.transitions_emitted;
    transitions_annulled = t.transitions_annulled;
    noop_evaluations = t.noop_evaluations;
    stopped_by = t.stopped_by;
  }

let merge into t =
  into.events_scheduled <- into.events_scheduled + t.events_scheduled;
  into.events_processed <- into.events_processed + t.events_processed;
  into.events_filtered <- into.events_filtered + t.events_filtered;
  into.stale_skipped <- into.stale_skipped + t.stale_skipped;
  into.transitions_emitted <- into.transitions_emitted + t.transitions_emitted;
  into.transitions_annulled <- into.transitions_annulled + t.transitions_annulled;
  into.noop_evaluations <- into.noop_evaluations + t.noop_evaluations;
  if Stop.completed into.stopped_by then into.stopped_by <- t.stopped_by

let diff a b =
  {
    events_scheduled = a.events_scheduled - b.events_scheduled;
    events_processed = a.events_processed - b.events_processed;
    events_filtered = a.events_filtered - b.events_filtered;
    stale_skipped = a.stale_skipped - b.stale_skipped;
    transitions_emitted = a.transitions_emitted - b.transitions_emitted;
    transitions_annulled = a.transitions_annulled - b.transitions_annulled;
    noop_evaluations = a.noop_evaluations - b.noop_evaluations;
    stopped_by = a.stopped_by;
  }

let pp fmt t =
  Format.fprintf fmt
    "events: %d scheduled, %d processed, %d filtered, %d stale-skipped; transitions: %d emitted, %d annulled; %d no-op evals"
    t.events_scheduled t.events_processed t.events_filtered t.stale_skipped
    t.transitions_emitted t.transitions_annulled t.noop_evaluations;
  if not (Stop.completed t.stopped_by) then
    Format.fprintf fmt "; stopped: %s" (Stop.to_string t.stopped_by)

let to_json t =
  let fields =
    [
      ("events_scheduled", Json.Num (float_of_int t.events_scheduled));
      ("events_processed", Json.Num (float_of_int t.events_processed));
      ("events_filtered", Json.Num (float_of_int t.events_filtered));
      ("stale_skipped", Json.Num (float_of_int t.stale_skipped));
      ("transitions_emitted", Json.Num (float_of_int t.transitions_emitted));
      ("transitions_annulled", Json.Num (float_of_int t.transitions_annulled));
      ("noop_evaluations", Json.Num (float_of_int t.noop_evaluations));
    ]
  in
  if Stop.completed t.stopped_by then Json.Obj fields
  else Json.Obj (fields @ [ ("stopped_by", Stop.to_json t.stopped_by) ])
