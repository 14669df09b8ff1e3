module Heap = Halotis_util.Heap
module Budget = Halotis_guard.Budget
module Stop = Halotis_guard.Stop

type t = {
  lim : Budget.limits;
  mutable stop : Stop.t;
  mutable end_time : float;
  mutable finished : bool;
}

let create budget ~t_stop ~max_events =
  {
    lim = Budget.limits budget ~t_stop ~max_events;
    stop = Stop.Completed;
    end_time = 0.;
    finished = false;
  }

let halt r reason =
  r.stop <- reason;
  r.finished <- true

let next r queue ~upto =
  if r.finished then Float.nan
  else if Heap.is_empty queue then begin
    r.finished <- true;
    Float.nan
  end
  else begin
    let t = Heap.min_key queue in
    if t > r.lim.Budget.horizon then begin
      halt r r.lim.Budget.horizon_stop;
      Float.nan
    end
    else if t <= upto then t
    else Float.nan
  end

let reached r t = r.end_time <- Float.max r.end_time t

let admit r ~at ~emitted ~queue =
  if emitted >= r.lim.Budget.transition_cap then begin
    halt r (Stop.Transition_cap r.lim.Budget.transition_cap);
    false
  end
  else
    match Budget.Monitor.hit r.lim.Budget.monitor ~queue with
    | Some reason ->
        halt r reason;
        false
    | None ->
        reached r at;
        true

let revive r queue =
  if r.finished && Stop.completed r.stop && not (Heap.is_empty queue) then
    r.finished <- false

let injection_rank k = (min_int / 2) + k
