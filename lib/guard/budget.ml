type t = {
  max_events : int option;
  max_wall_s : float option;
  max_queue : int option;
  max_sim_time : float option;
  max_transitions : int option;
}

let unlimited =
  {
    max_events = None;
    max_wall_s = None;
    max_queue = None;
    max_sim_time = None;
    max_transitions = None;
  }

let make ?max_events ?max_wall_s ?max_queue ?max_sim_time () =
  { max_events; max_wall_s; max_queue; max_sim_time; max_transitions = None }

let is_unlimited b =
  b.max_events = None && b.max_wall_s = None && b.max_queue = None && b.max_sim_time = None
  && b.max_transitions = None

module Monitor = struct
  type budget = t

  (* events between slow-path checks *)
  let interval = 1024

  type t = {
    budget : budget;
    mutable countdown : int;  (* events left before the next slow-path check *)
    mutable fill : int;  (* what countdown was last refilled to *)
    mutable events : int;  (* events accounted at the last refill *)
    wall_start : float;
  }

  let refill m =
    let fill =
      match m.budget.max_events with
      | Some lim -> min interval (lim - m.events)
      | None -> interval
    in
    m.fill <- fill;
    m.countdown <- fill

  let create budget =
    let wall_start = if budget.max_wall_s <> None then Unix.gettimeofday () else 0. in
    let m = { budget; countdown = 0; fill = 0; events = 0; wall_start } in
    refill m;
    m

  (* Slow path: runs once per [interval] events (or at the event-budget
     boundary).  Refills the countdown so the fast path stays a single
     decrement + branch. *)
  let check m ~queue =
    (* The event that tripped the fast path has consumed no fill slot
       yet: account the exhausted fill, decide, and only count the
       in-flight event if it is admitted — this keeps the event budget
       exact whatever the interval. *)
    m.events <- m.events + m.fill;
    m.fill <- 0;
    m.countdown <- 0;
    let b = m.budget in
    let stop =
      match b.max_events with
      | Some lim when m.events >= lim -> Some (Stop.Event_budget lim)
      | _ -> (
          match b.max_queue with
          | Some cap when queue > cap -> Some (Stop.Queue_cap cap)
          | _ -> (
              match b.max_wall_s with
              | Some lim when Unix.gettimeofday () -. m.wall_start >= lim ->
                  Some (Stop.Wall_clock lim)
              | _ -> None))
    in
    (match stop with
    | None ->
        m.events <- m.events + 1;
        refill m
    | Some _ -> ());
    stop

  let hit m ~queue =
    m.countdown <- m.countdown - 1;
    if m.countdown >= 0 then None else check m ~queue
end

type limits = {
  horizon : float;
  horizon_stop : Stop.t;
  transition_cap : int;
  monitor : Monitor.t;
}

(* A run whose budget sets no event cap still stops after this many
   events: the safety valve against circuits that never quiesce.  It
   folds into the monitor, which is exact. *)
let safety_max_events = 10_000_000

let limits b ~t_stop =
  let horizon, horizon_stop =
    match (t_stop, b.max_sim_time) with
    | None, None -> (infinity, Stop.Completed)
    | Some ts, None -> (ts, Stop.Completed)
    | None, Some mt -> (mt, Stop.Sim_time mt)
    | Some ts, Some mt -> if mt < ts then (mt, Stop.Sim_time mt) else (ts, Stop.Completed)
  in
  let max_events = Option.value b.max_events ~default:safety_max_events in
  {
    horizon;
    horizon_stop;
    transition_cap = Option.value b.max_transitions ~default:max_int;
    monitor = Monitor.create { b with max_events = Some max_events };
  }
