module Netlist = Halotis_netlist.Netlist
module Transition = Halotis_wave.Transition
module Digital = Halotis_wave.Digital
module Tech = Halotis_tech.Tech
module Delay_model = Halotis_delay.Delay_model
module Heap = Halotis_util.Heap
module Gate_kind = Halotis_logic.Gate_kind
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Watchdog = Halotis_guard.Watchdog

type mode = Inertial | Transport

type config = {
  tech : Tech.t;
  overlay : Halotis_tech.Param_overlay.t;
  t_stop : float option;
  max_events : int;
  mode : mode;
  budget : Budget.t;
  watchdog : Watchdog.config option;
}

let config ?(overlay = Halotis_tech.Param_overlay.empty) ?t_stop
    ?(max_events = 10_000_000) ?(mode = Inertial)
    ?(budget = Budget.unlimited) ?watchdog tech =
  { tech; overlay; t_stop; max_events; mode; budget; watchdog }

type result = {
  circuit : Netlist.t;
  edges : Digital.edge list array Lazy.t;
  initial_levels : bool array;
  final_levels : bool array;
  stats : Stats.t;
  end_time : float;
  truncated : bool;
  stopped_by : Stop.t;
  frozen : (Netlist.signal_id * float) list;
  replay_hazard : bool;
}

type injection = Netlist.signal_id * (float * bool) list

(* The netlist structure comes from the shared {!Compiled.t} (the same
   CSR arrays and delay cache the IDDM kernel reads), so the per-event
   path never touches the boxed gate records.  Compiled fanout lists one
   edge per (gate, pin) load; this engine evaluates each distinct gate
   once per committed change, so a fanout walk stamps the gates it has
   evaluated in [seen].

   Transactions live in a recycled structure-of-arrays pool and are
   passed around as small-int slots (heap payloads are bare ints), so
   the hot path builds no transaction record; what it still allocates
   is the boxes of floats passed across module boundaries (see the
   [Iddm] header).  [tx_dead] is the
   lazy-cancellation tombstone: preempted transactions are marked dead
   in place and discarded (and recycled) when the queue surfaces them.
   A slot sits in the queue exactly once, so recycling at pop time is
   single-free by construction.

   Queue ties break by an intrinsic rank, as in {!Iddm}.  Input
   switches rank lowest, in the order {!start} seeds them: the drive
   table's order, then each drive's own ({!input_seeds}).  Injection
   toggles come next, in the order they were queued
   ({!Run_control.injection_rank}).  A driver transaction or a replayed
   boundary edge on signal [sid] ranks [sid].  The order among
   simultaneous input switches sets edge times (where several inputs
   of one gate switch at one instant, the last to pop prices the gate's
   delay), so it is the seeding order, the one a first-in first-out
   queue pops them in.  A new transaction annuls its signal's pending
   ones at or after it, so a signal holds at most one live transaction
   per instant, and equal-instant pops resolve the same way in every
   run that queues the same entries, in whatever order it queues
   them. *)
type state = {
  cfg : config;
  cp : Compiled.t;
  levels : bool array; (* the DC operating point *)
  value : bool array; (* committed signal values *)
  pending : Slot_deque.t array;
      (* per signal: live scheduled driver transactions, or an input's
         queued switches *)
  queue : Heap.t;
  rev_edges : Digital.edge list array; (* newest first *)
  seen : int array;
      (* gate -> the fanout walk that last evaluated it; [max_int] bars
         a gate from evaluation (the gates outside a cone run's cone) *)
  mutable walk : int;
  (* transaction pool: parallel arrays indexed by slot *)
  mutable tx_sid : int array;
  mutable tx_at : float array;
  mutable tx_value : Bytes.t; (* '\001' = drive high *)
  mutable tx_dead : Bytes.t;
  mutable tx_free : int array; (* stack of recycled slots *)
  mutable tx_free_top : int;
  stats : Stats.t;
  (* guardrails *)
  wd : Watchdog.t option;
  fz : Watchdog.frozen;
  ctl : Run_control.t; (* limits, stop reason, progress *)
  mutable seeded : int; (* the rank of the next input switch *)
  mutable toggles : int; (* injection toggles queued so far *)
  cone : bool; (* a {!start_cone} run *)
  mutable replay_hazard : bool;
}

let grow_pool st =
  let cap = Array.length st.tx_sid in
  let ncap = max 64 (2 * cap) in
  let si = Array.make ncap (-1) in
  Array.blit st.tx_sid 0 si 0 cap;
  st.tx_sid <- si;
  let at = Array.make ncap 0. in
  Array.blit st.tx_at 0 at 0 cap;
  st.tx_at <- at;
  let va = Bytes.make ncap '\000' in
  Bytes.blit st.tx_value 0 va 0 cap;
  st.tx_value <- va;
  let de = Bytes.make ncap '\000' in
  Bytes.blit st.tx_dead 0 de 0 cap;
  st.tx_dead <- de;
  let free = Array.make ncap 0 in
  for i = 0 to ncap - cap - 1 do
    free.(i) <- cap + i
  done;
  st.tx_free <- free;
  st.tx_free_top <- ncap - cap

let alloc_tx st =
  if st.tx_free_top = 0 then grow_pool st;
  st.tx_free_top <- st.tx_free_top - 1;
  st.tx_free.(st.tx_free_top)

let free_tx st slot =
  st.tx_free.(st.tx_free_top) <- slot;
  st.tx_free_top <- st.tx_free_top + 1

(* Allocate, fill and enqueue a transaction slot (heap only; the caller
   decides whether it also enters a pending deque). *)
let enqueue_tx st ~rank ~sid ~at ~value =
  let slot = alloc_tx st in
  st.tx_sid.(slot) <- sid;
  st.tx_at.(slot) <- at;
  Bytes.set st.tx_value slot (if value then '\001' else '\000');
  Bytes.set st.tx_dead slot '\000';
  Heap.insert st.queue ~key:at ~rank slot;
  slot

(* The value the driver will settle to once pending transactions fire. *)
let scheduled_target st sid =
  let txq : Slot_deque.t = st.pending.(sid) in
  if txq.head < txq.tail then
    Bytes.get st.tx_value (txq.buf.(txq.tail - 1)) = '\001'
  else st.value.(sid)

(* Transport preemption: kill the pending transactions of [sid] at or
   after [at] — a suffix of the (time-sorted) deque, tombstoned in
   place. *)
let preempt st sid ~at =
  let txq : Slot_deque.t = st.pending.(sid) in
  let i = ref (txq.tail - 1) in
  while !i >= txq.head && st.tx_at.(txq.buf.(!i)) >= at do
    Bytes.set st.tx_dead txq.buf.(!i) '\001';
    st.stats.Stats.events_filtered <- st.stats.Stats.events_filtered + 1;
    decr i
  done;
  txq.tail <- !i + 1

(* Classical inertial scheduling on signal [sid]. *)
let schedule_inertial st sid ~at ~value ~window =
  preempt st sid ~at;
  let txq : Slot_deque.t = st.pending.(sid) in
  if scheduled_target st sid = value then st.stats.Stats.noop_evaluations <- st.stats.Stats.noop_evaluations + 1
  else begin
    (* Inertial rejection: a reversal closer than the gate's window to
       the previous pending transaction annihilates with it.  Transport
       mode never rejects. *)
    if
      txq.head < txq.tail
      && st.cfg.mode = Inertial
      && at -. st.tx_at.(txq.buf.(txq.tail - 1)) < window
    then begin
      Bytes.set st.tx_dead txq.buf.(txq.tail - 1) '\001';
      txq.tail <- txq.tail - 1;
      st.stats.Stats.events_filtered <- st.stats.Stats.events_filtered + 2
    end
    else begin
      Slot_deque.push txq (enqueue_tx st ~rank:sid ~sid ~at ~value);
      st.stats.Stats.events_scheduled <- st.stats.Stats.events_scheduled + 1
    end
  end

(* The lowest pin of [gid] that reads [sid]: the pin whose delay a
   distinct-gate evaluation is priced at. *)
let first_pin (cp : Compiled.t) gid sid =
  let base = cp.Compiled.g_base.(gid) in
  let rec find p = if cp.Compiled.pin_fanin.(base + p) = sid then p else find (p + 1) in
  find 0

let evaluate_fanout st ~now sid =
  (* A gate with several pins on [sid] evaluates once per pin in the
     paper's event model; one evaluation per distinct gate suffices
     here because values, not thresholds, drive the baseline.  Gates
     evaluate in the order of their first load on [sid]. *)
  let cp = st.cp in
  st.walk <- st.walk + 1;
  for e = cp.Compiled.fan_off.(sid) to cp.Compiled.fan_off.(sid + 1) - 1 do
    let gid = cp.Compiled.fan_gate.(e) in
    if st.seen.(gid) < st.walk then begin
      st.seen.(gid) <- st.walk;
      let new_out = Dc.eval_gate st.cp st.value gid in
      let out_sid = cp.Compiled.g_out.(gid) in
      if st.fz.Watchdog.fz_any && Bytes.get st.fz.Watchdog.fz_marks out_sid = '\001' then
        (* frozen output: the gate evaluated but schedules nothing *)
        st.stats.Stats.noop_evaluations <- st.stats.Stats.noop_evaluations + 1
      else if new_out <> scheduled_target st out_sid then begin
        let cache = cp.Compiled.cache in
        Delay_model.Cache.eval cache gid Delay_model.Cdm ~rising_out:new_out
          ~pin:(first_pin cp gid sid) ~tau_in:0. ~t_event:now ~last_output_start:Float.nan;
        let tp = Delay_model.Cache.tp cache in
        (* a transaction due no later than its cause can jump ahead of
           pops at [now] whose cone-run order may not be the full run's *)
        if st.cone && tp <= 0. then st.replay_hazard <- true;
        schedule_inertial st out_sid ~at:(now +. tp) ~value:new_out ~window:tp
      end
      else st.stats.Stats.noop_evaluations <- st.stats.Stats.noop_evaluations + 1
    end
  done

let toggle (tr : Transition.t) =
  ( tr.Transition.start +. (tr.Transition.slope_time /. 2.),
    match tr.Transition.polarity with Transition.Rising -> true | Transition.Falling -> false )

(* A primary-input switch, ranked [st.seeded].  Nothing but its
   stimulus drives an input, so the input's deque holds just its queued
   switches, which {!session_set_input} annuls.  A switch whose 50 %
   point falls before an already queued one (overlapping drive ramps)
   stays out of the deque, which has to remain time-sorted. *)
let seed_input st sid (tr : Transition.t) =
  let at, value = toggle tr in
  let slot = enqueue_tx st ~rank:st.seeded ~sid ~at ~value in
  st.seeded <- st.seeded + 1;
  let txq : Slot_deque.t = st.pending.(sid) in
  if txq.head = txq.tail || st.tx_at.(txq.buf.(txq.tail - 1)) <= at then
    Slot_deque.push txq slot;
  st.stats.Stats.events_scheduled <- st.stats.Stats.events_scheduled + 1

(* The driven inputs in the drive table's order, each with its
   switches and the rank of its first switch: input switches rank from
   [min_int] up, in that order ([Hashtbl.fold] visits every table
   {!Drive.bind} builds from one drive list in one order). *)
let input_seeds drives_tbl =
  let next = ref min_int in
  List.rev
    (Hashtbl.fold
       (fun sid (d : Drive.t) acc ->
         let rank = !next in
         next := !next + List.length d.Drive.transitions;
         (sid, rank, d.Drive.transitions) :: acc)
       drives_tbl [])

let seed_drive st (sid, rank, transitions) =
  st.seeded <- rank;
  List.iter (seed_input st sid) transitions

(* Injections: forced value toggles on arbitrary signals (the boolean
   abstraction of a SET pulse).  They go into the queue but
   deliberately NOT into the signal's pending-transaction deque: a
   particle strike is not a driver transaction, so earlier driver
   activity must not preempt it.  Fanout gates still apply the
   classical inertial filter to the pulse they observe.  Like IDDM
   splices, they are stimulus and do not count as scheduled events. *)
let add_injection st (sid, toggles) =
  if sid < 0 || sid >= st.cp.Compiled.nsignals then
    invalid_arg "Classic: injection on unknown signal";
  List.iter
    (fun (at, value) ->
      ignore (enqueue_tx st ~rank:(Run_control.injection_rank st.toggles) ~sid ~at ~value);
      st.toggles <- st.toggles + 1)
    toggles

(* A paused run is its state, as in {!Iddm}. *)
type session = state

(* The per-run state shared by a whole-circuit [start] and a
   cone-restricted [start_cone]: everything except the circuit-sized
   arrays, which [start] allocates fresh and a cone run borrows from its
   workspace.  [pool]: a drained earlier state whose transaction pool
   and queue carry over. *)
let make_state ?pool ~cone cfg (cp : Compiled.t) ~levels ~value ~pending
    ~rev_edges ~seen ~fz =
  let st =
    {
      cfg;
      cp;
      levels;
      value;
      pending;
      queue = (match pool with Some p -> p.queue | None -> Heap.create ~capacity:64 ());
      rev_edges;
      seen;
      walk = 0;
      tx_sid = [||];
      tx_at = [||];
      tx_value = Bytes.empty;
      tx_dead = Bytes.empty;
      tx_free = [||];
      tx_free_top = 0;
      stats = Stats.create ();
      wd = Option.map (fun w -> Watchdog.create w ~nsignals:cp.Compiled.nsignals) cfg.watchdog;
      fz;
      ctl = Run_control.create cfg.budget ~t_stop:cfg.t_stop ~max_events:cfg.max_events;
      seeded = min_int;
      toggles = 0;
      cone;
      replay_hazard = false;
    }
  in
  (match pool with
  | None -> ()
  | Some p ->
      st.tx_sid <- p.tx_sid;
      st.tx_at <- p.tx_at;
      st.tx_value <- p.tx_value;
      st.tx_dead <- p.tx_dead;
      st.tx_free <- p.tx_free;
      st.tx_free_top <- p.tx_free_top);
  st

let start ?(injections = []) ?compiled cfg c ~drives =
  let cp = Compiled.resolve ~who:"Classic.start" ?compiled ~overlay:cfg.overlay cfg.tech c in
  let drives_tbl, levels = Drive.bind ~who:"Classic.start" cp drives in
  let nsignals = cp.Compiled.nsignals in
  let st =
    make_state ~cone:false cfg cp ~levels ~value:(Array.copy levels)
      ~pending:(Array.init nsignals (fun _ -> Slot_deque.create ()))
      ~rev_edges:(Array.make nsignals []) ~seen:(Array.make cp.Compiled.ngates 0)
      ~fz:(Watchdog.frozen ~nsignals)
  in
  List.iter (seed_drive st) (input_seeds drives_tbl);
  List.iter (add_injection st) injections;
  st

(* Cone-restricted re-simulation, the classic counterpart of
   {!Iddm.start_cone}: only the cone's gates evaluate, and the events of
   its boundary feeds — the signals outside the cone that drive its
   gates — are replayed from outside.  A driven primary input replays
   its drive's own switches, ranked as [start] ranks them; any other
   boundary signal replays the baseline's committed edges, the only
   events of that signal a cone gate ever reacts to, each ranked as the
   transaction that committed it.  So the cone's events pop in the full
   run's order, although the full run queued the replayed edges mid-run
   and a cone run queues them at the start.
   The run flags [replay_hazard] only when a delay of tp <= 0 could
   queue a transaction ahead of pops already due.

   The circuit-sized arrays (values, pending deques, committed edges,
   evaluation stamps, freeze and boundary marks) live in the workspace;
   a run resets the entries of its cone and boundary signals and bars
   every other gate from evaluation by a [max_int] stamp.  The pool and
   queue carry over once drained. *)
type cone_workspace = {
  cw_cfg : config;
  cw_cp : Compiled.t;
  cw_levels : bool array;
  cw_drives : (int, int * Transition.t list) Hashtbl.t;
      (* driven input -> the rank of its first switch, its switches *)
  cw_base_edges : Digital.edge list array; (* the baseline's committed edges *)
  cw_value : bool array;
  cw_pending : Slot_deque.t array;
  cw_rev_edges : Digital.edge list array;
  cw_seen : int array; (* [max_int] outside the current cone *)
  cw_bnd : Bytes.t; (* signal -> '\001' iff a boundary feed of the latest run *)
  cw_fz : Watchdog.frozen;
  mutable cw_prev : (Compiled.cone * int list * state) option;
      (* the latest run, with its boundary signals *)
}

let cone_workspace ~compiled:cp ~(baseline : result) cfg c ~drives =
  Compiled.check ~who:"Classic.cone_workspace" cp ~overlay:cfg.overlay cfg.tech c;
  let drives_tbl, levels = Drive.bind ~who:"Classic.cone_workspace" cp drives in
  let nsignals = cp.Compiled.nsignals in
  if Array.length baseline.final_levels <> nsignals then
    invalid_arg "Classic.cone_workspace: baseline is for a different netlist";
  {
    cw_cfg = cfg;
    cw_cp = cp;
    cw_levels = levels;
    cw_drives =
      (let t = Hashtbl.create 16 in
       List.iter (fun (sid, rank, trs) -> Hashtbl.replace t sid (rank, trs)) (input_seeds drives_tbl);
       t);
    cw_base_edges = Lazy.force baseline.edges;
    cw_value = Array.copy levels;
    cw_pending = Array.init nsignals (fun _ -> Slot_deque.create ());
    cw_rev_edges = Array.make nsignals [];
    cw_seen = Array.make cp.Compiled.ngates max_int;
    cw_bnd = Bytes.make nsignals '\000';
    cw_fz = Watchdog.frozen ~nsignals;
    cw_prev = None;
  }

(* Undo what the latest run left outside its cone and hand back its
   drained state, whose pool and queue the next run reuses. *)
let reclaim ws =
  match ws.cw_prev with
  | None -> None
  | Some (cone, bnd, prev) ->
      while not (Heap.is_empty prev.queue) do
        free_tx prev (Heap.pop prev.queue)
      done;
      Array.iter (fun g -> ws.cw_seen.(g) <- max_int) cone.Compiled.cone_gates;
      List.iter (fun sid -> Bytes.set ws.cw_bnd sid '\000') bnd;
      Watchdog.thaw ws.cw_fz;
      ws.cw_prev <- None;
      Some prev

let start_cone ?(injections = []) ws ~(cone : Compiled.cone) =
  let cp = ws.cw_cp in
  Compiled.check_cone ~who:"Classic.start_cone" cp cone;
  List.iter
    (fun (sid, _) ->
      if sid < 0 || sid >= cp.Compiled.nsignals then
        invalid_arg "Classic.start_cone: injection on unknown signal";
      if not (Compiled.mem_sorted cone.Compiled.cone_signals sid) then
        invalid_arg "Classic.start_cone: injection outside the cone")
    injections;
  let pool = reclaim ws in
  let st =
    make_state ?pool ~cone:true ws.cw_cfg cp ~levels:ws.cw_levels ~value:ws.cw_value
      ~pending:ws.cw_pending ~rev_edges:ws.cw_rev_edges ~seen:ws.cw_seen ~fz:ws.cw_fz
  in
  let reset sid =
    ws.cw_value.(sid) <- ws.cw_levels.(sid);
    ws.cw_rev_edges.(sid) <- [];
    let q : Slot_deque.t = ws.cw_pending.(sid) in
    q.head <- 0;
    q.tail <- 0
  in
  Array.iter (fun g -> ws.cw_seen.(g) <- 0) cone.Compiled.cone_gates;
  Array.iter reset cone.Compiled.cone_signals;
  let bnd = ref [] in
  Array.iteri
    (fun k g ->
      let sid = cp.Compiled.pin_fanin.(cp.Compiled.g_base.(g) + cone.Compiled.cone_bnd_pin.(k)) in
      if Bytes.get ws.cw_bnd sid = '\000' then begin
        Bytes.set ws.cw_bnd sid '\001';
        reset sid;
        bnd := sid :: !bnd;
        match Hashtbl.find_opt ws.cw_drives sid with
        | Some (rank, transitions) -> seed_drive st (sid, rank, transitions)
        | None ->
            List.iter
              (fun (e : Digital.edge) ->
                ignore
                  (enqueue_tx st ~rank:sid ~sid ~at:e.Digital.at
                     ~value:(e.Digital.polarity = Transition.Rising)))
              ws.cw_base_edges.(sid)
      end)
    cone.Compiled.cone_bnd_gate;
  List.iter (add_injection st) injections;
  ws.cw_prev <- Some (cone, !bnd, st);
  st

let cone_edges ws sid = List.rev ws.cw_rev_edges.(sid)

(* The edge lists are fixed at the call (the per-signal lists are
   immutable) but reversed only when read, so a snapshot costs
   O(signals) however long the run.  A cone run's result aliases its
   workspace instead (read it through {!cone_edges}). *)
let snapshot st =
  let ctl = st.ctl in
  st.stats.Stats.stopped_by <- ctl.Run_control.stop;
  let rev_edges = if st.cone then st.rev_edges else Array.copy st.rev_edges in
  {
    circuit = st.cp.Compiled.circuit;
    edges = lazy (Array.map List.rev rev_edges);
    initial_levels = st.levels;
    final_levels = st.value;
    stats = st.stats;
    end_time = ctl.Run_control.end_time;
    truncated = not (Stop.completed ctl.Run_control.stop);
    stopped_by = ctl.Run_control.stop;
    frozen = List.rev st.fz.Watchdog.fz_rev;
    replay_hazard = st.replay_hazard;
  }

(* The main loop, paused at [upto]; pausing is free and exact for the
   same reason as in {!Iddm.advance}. *)
let advance st ~upto =
  let ctl = st.ctl in
  let continue = ref true in
  while !continue do
    let t = Run_control.next ctl st.queue ~upto in
    if Float.is_nan t then continue := false
    else begin
      let slot = Heap.pop st.queue in
      if Bytes.get st.tx_dead slot = '\001' then begin
        st.stats.Stats.stale_skipped <- st.stats.Stats.stale_skipped + 1;
        free_tx st slot
      end
      else if
        (* committed-edge (memory) cap and budget: the same pre-event
           checks as the IDDM engine's *)
        Run_control.admit ctl ~at:t ~emitted:st.stats.Stats.transitions_emitted
          ~queue:(Heap.length st.queue)
      then begin
        st.stats.Stats.events_processed <- st.stats.Stats.events_processed + 1;
        let sid = st.tx_sid.(slot) in
        let value = Bytes.get st.tx_value slot = '\001' in
        (* reclaim a committed transaction from its deque; injected
           toggles were never entered *)
        let txq : Slot_deque.t = st.pending.(sid) in
        if txq.head < txq.tail && txq.buf.(txq.head) = slot then txq.head <- txq.head + 1;
        free_tx st slot;
        if
          st.value.(sid) <> value
          && not (st.fz.Watchdog.fz_any && Bytes.get st.fz.Watchdog.fz_marks sid = '\001')
        then begin
          st.value.(sid) <- value;
          let polarity = if value then Transition.Rising else Transition.Falling in
          st.rev_edges.(sid) <- { Digital.at = t; polarity } :: st.rev_edges.(sid);
          st.stats.Stats.transitions_emitted <- st.stats.Stats.transitions_emitted + 1;
          (match st.wd with
          | Some wd ->
              (* a Halt-mode trip halts [ctl] *)
              if Watchdog.record wd ~signal:sid ~now:t then
                Option.iter (Run_control.halt ctl)
                  (Watchdog.trip wd st.cp.Compiled.circuit st.fz ~signal:sid ~at:t)
          | None -> ());
          evaluate_fanout st ~now:t sid
        end
      end
      else free_tx st slot
    end
  done;
  snapshot st

let run ?injections ?compiled cfg c ~drives =
  advance (start ?injections ?compiled cfg c ~drives) ~upto:infinity

(* Live stimulus replaces the input's queued future: switches at or
   after a new one are annulled first, as {!Iddm.session_set_input}'s
   waveform append drops the stored ramps from the new one's start. *)
let session_set_input st sid transitions =
  Drive.check_input ~who:"Classic.session_set_input" st.cp.Compiled.circuit sid;
  List.iter
    (fun tr ->
      preempt st sid ~at:(fst (toggle tr));
      seed_input st sid tr)
    transitions;
  Run_control.revive st.ctl st.queue

let session_inject st injection =
  add_injection st injection;
  Run_control.revive st.ctl st.queue

let session_finished st = st.ctl.Run_control.finished
let session_result st = snapshot st

let edges_of_name result name =
  match Netlist.find_signal result.circuit name with
  | Some sid -> (Lazy.force result.edges).(sid)
  | None -> raise Not_found
