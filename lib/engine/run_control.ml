module Heap = Halotis_util.Heap
module Budget = Halotis_guard.Budget
module Stop = Halotis_guard.Stop

type t = {
  lim : Budget.limits;
  stats : Stats.t;
  mutable stop : Stop.t;
  mutable end_time : float;
  mutable now : float;
  mutable finished : bool;
  queue : Heap.t;
  mutable at : float array;
  mutable dead : Bytes.t;
  mutable int0 : int array;
  mutable int1 : int array;
  mutable real : float array;
  mutable flag : Bytes.t;
  mutable free : int array; (* stack of recycled slots *)
  mutable free_top : int;
}

let create ?pool budget ~t_stop ~stats =
  let lim = Budget.limits budget ~t_stop in
  match pool with
  | Some p ->
      (* drain the queue a cut-short run left, recycling its slots *)
      while not (Heap.is_empty p.queue) do
        p.free.(p.free_top) <- Heap.pop p.queue;
        p.free_top <- p.free_top + 1
      done;
      { p with lim; stats; stop = Stop.Completed; end_time = 0.; now = 0.; finished = false }
  | None ->
      {
        lim;
        stats;
        stop = Stop.Completed;
        end_time = 0.;
        now = 0.;
        finished = false;
        queue = Heap.create ();
        at = [||];
        dead = Bytes.empty;
        int0 = [||];
        int1 = [||];
        real = [||];
        flag = Bytes.empty;
        free = [||];
        free_top = 0;
      }

let grow k =
  let cap = Array.length k.at in
  let ncap = max 64 (2 * cap) in
  let extend a x =
    let b = Array.make ncap x in
    Array.blit a 0 b 0 cap;
    b
  in
  let extend_bytes a =
    let b = Bytes.make ncap '\000' in
    Bytes.blit a 0 b 0 cap;
    b
  in
  k.at <- extend k.at 0.;
  k.real <- extend k.real 0.;
  k.int0 <- extend k.int0 (-1);
  k.int1 <- extend k.int1 (-1);
  k.dead <- extend_bytes k.dead;
  k.flag <- extend_bytes k.flag;
  (* the free stack is empty when the pool grows; refill it with the
     slots just minted *)
  k.free <- Array.init ncap (fun i -> if i < ncap - cap then cap + i else 0);
  k.free_top <- ncap - cap

let alloc k ~key ~rank =
  if k.free_top = 0 then grow k;
  k.free_top <- k.free_top - 1;
  let s = k.free.(k.free_top) in
  k.at.(s) <- key;
  Bytes.set k.dead s '\000';
  Heap.insert k.queue ~key ~rank s;
  s

let halt k reason =
  k.stop <- reason;
  k.finished <- true

(* The minimum's instant is read through its slot, so checking it
   allocates no float box. *)
let rec pop k ~upto =
  if k.finished then -1
  else if Heap.is_empty k.queue then begin
    k.finished <- true;
    -1
  end
  else begin
    let t = k.at.(Heap.top k.queue) in
    if t > k.lim.Budget.horizon then begin
      halt k k.lim.Budget.horizon_stop;
      -1
    end
    else if t <= upto then begin
      let s = Heap.pop k.queue in
      k.free.(k.free_top) <- s;
      k.free_top <- k.free_top + 1;
      if Bytes.get k.dead s = '\001' then begin
        k.stats.Stats.stale_skipped <- k.stats.Stats.stale_skipped + 1;
        pop k ~upto
      end
      else begin
        k.now <- t;
        s
      end
    end
    else -1
  end

(* [now] is boxed once, when {!pop} stores it; [Float.max] returns one
   of its arguments, so this allocates nothing. *)
let reached k = k.end_time <- Float.max k.end_time k.now

let admit k ~emitted =
  if emitted >= k.lim.Budget.transition_cap then begin
    halt k (Stop.Transition_cap k.lim.Budget.transition_cap);
    false
  end
  else
    match Budget.Monitor.hit k.lim.Budget.monitor ~queue:(Heap.length k.queue) with
    | Some reason ->
        halt k reason;
        false
    | None ->
        reached k;
        true

let revive k =
  if k.finished && Stop.completed k.stop && not (Heap.is_empty k.queue) then
    k.finished <- false

let injection_rank k = (min_int / 2) + k
