module Netlist = Halotis_netlist.Netlist
module Transition = Halotis_wave.Transition
module Digital = Halotis_wave.Digital
module Tech = Halotis_tech.Tech
module Delay_model = Halotis_delay.Delay_model
module Gate_kind = Halotis_logic.Gate_kind
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Watchdog = Halotis_guard.Watchdog

type mode = Inertial | Transport

type config = {
  tech : Tech.t;
  overlay : Halotis_tech.Param_overlay.t;
  t_stop : float option;
  mode : mode;
  budget : Budget.t;
  watchdog : Watchdog.config option;
}

let config ?(overlay = Halotis_tech.Param_overlay.empty) ?t_stop ?(mode = Inertial)
    ?(budget = Budget.unlimited) ?watchdog tech =
  { tech; overlay; t_stop; mode; budget; watchdog }

type result = {
  circuit : Netlist.t;
  edges : Digital.edge list array Lazy.t;
  initial_levels : bool array;
  final_levels : bool array;
  stats : Stats.t;
  end_time : float;
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

   Transactions are slots of the shared event kernel
   ({!Run_control}), as IDDM events are: [int0] is the signal, [flag]
   '\001' drives it high, and an input switch keeps its rank in [int1]
   for the checkpoints of cone runs.  So the hot path builds no transaction
   record; what it still allocates is the boxes of floats passed across
   module boundaries (see the [Iddm] header).  A preempted transaction
   is tombstoned in place and discarded when the queue surfaces it.

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
  rev_edges : Digital.edge list array; (* newest first *)
  seen : int array;
      (* gate -> the fanout walk that last evaluated it; [max_int] bars
         a gate from evaluation (the gates outside a cone run's cone) *)
  mutable walk : int;
  stats : Stats.t;
  (* guardrails *)
  wd : Watchdog.t option;
  fz : Watchdog.frozen;
  ctl : Run_control.t; (* queue, transaction pool, limits, stop reason, progress *)
  mutable seeded : int; (* the rank of the next input switch *)
  mutable toggles : int; (* injection toggles queued so far *)
  cone : bool; (* a {!start_cone} run *)
  mutable replay_hazard : bool;
}

(* Allocate, fill and enqueue a transaction slot (heap only; the caller
   decides whether it also enters a pending deque). *)
let enqueue_tx st ~rank ~sid ~at ~value =
  let k = st.ctl in
  let slot = Run_control.alloc k ~key:at ~rank in
  k.Run_control.int0.(slot) <- sid;
  Bytes.set k.Run_control.flag slot (if value then '\001' else '\000');
  slot

(* The value the driver will settle to once pending transactions fire. *)
let scheduled_target st sid =
  let txq : Slot_deque.t = st.pending.(sid) in
  if txq.head < txq.tail then
    Bytes.get st.ctl.Run_control.flag txq.buf.(txq.tail - 1) = '\001'
  else st.value.(sid)

(* Transport preemption: kill the pending transactions of [sid] at or
   after [at] — a suffix of the (time-sorted) deque, tombstoned in
   place. *)
let preempt st sid ~at =
  let k = st.ctl and txq : Slot_deque.t = st.pending.(sid) in
  let i = ref (txq.tail - 1) in
  while !i >= txq.head && k.Run_control.at.(txq.buf.(!i)) >= at do
    Bytes.set k.Run_control.dead txq.buf.(!i) '\001';
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
      && at -. st.ctl.Run_control.at.(txq.buf.(txq.tail - 1)) < window
    then begin
      Bytes.set st.ctl.Run_control.dead txq.buf.(txq.tail - 1) '\001';
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
   switches.  A drive ramp overrides the queued switches strictly later
   than its own 50 % point (overlapping ramps: the later ramp sets the
   final level); equal-instant switches all stay, in seeding order. *)
let seed_input st sid (tr : Transition.t) =
  let at, value = toggle tr in
  preempt st sid ~at:(Float.succ at);
  let slot = enqueue_tx st ~rank:st.seeded ~sid ~at ~value in
  st.ctl.Run_control.int1.(slot) <- st.seeded;
  Slot_deque.push st.pending.(sid) slot;
  st.seeded <- st.seeded + 1;
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
   workspace.  [pool]: an earlier run's kernel, whose transaction pool
   and queue carry over. *)
let make_state ?pool ~cone cfg (cp : Compiled.t) ~levels ~value ~pending
    ~rev_edges ~seen ~fz =
  let stats = Stats.create () in
  {
    cfg;
    cp;
    levels;
    value;
    pending;
    rev_edges;
    seen;
    walk = 0;
    stats;
    wd = Option.map (fun w -> Watchdog.create w ~nsignals:cp.Compiled.nsignals) cfg.watchdog;
    fz;
    ctl = Run_control.create ?pool cfg.budget ~t_stop:cfg.t_stop ~stats;
    seeded = min_int;
    toggles = 0;
    cone;
    replay_hazard = false;
  }

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
    let slot = Run_control.pop ctl ~upto in
    if slot < 0 then continue := false
    else if
      (* committed-edge (memory) cap and budget: the same pre-event
         checks as the IDDM engine's *)
      Run_control.admit ctl ~emitted:st.stats.Stats.transitions_emitted
    then begin
      st.stats.Stats.events_processed <- st.stats.Stats.events_processed + 1;
      let t = ctl.Run_control.now and sid = ctl.Run_control.int0.(slot) in
      let value = Bytes.get ctl.Run_control.flag slot = '\001' in
      (* reclaim a committed transaction from its deque; injected
         toggles were never entered *)
      let txq : Slot_deque.t = st.pending.(sid) in
      if txq.head < txq.tail && txq.buf.(txq.head) = slot then txq.head <- txq.head + 1;
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
  done;
  snapshot st

let run cfg c ~drives = advance (start cfg c ~drives) ~upto:infinity

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

   Time slicing, as in {!Iddm}: before the strike a cone run only
   replays the baseline, so the workspace steps one replay of the
   baseline through the checkpoint grid ({!Checkpoint_grid}), and a
   cone run starts from the latest checkpoint at or before its strike.
   A checkpoint at [t] is the full run's state after every event keyed
   before [t]: each signal's committed value, its live pending
   transactions (key, value and rank), and its committed edges as the
   suffix of its baseline edge list from [t] on.  From it a cone run
   restores only its members and boundary feeds.  Members get their
   values and live transactions back; a driven input feeding the cone
   gets its live transactions, which are its switches at or after [t];
   any other boundary feed replays its baseline edges at or after [t].
   Everything a run from the DC state does before [t] is the same in a
   clean and a struck run sharing the checkpoint, so their counter
   delta is unchanged; transactions the full run had tombstoned before
   [t] are left out, and those would be skipped as stale in both.  The
   DC state is checkpoint 0, so every cone run takes this one path.

   A run records only the edges it commits; {!cone_edges} puts the
   baseline's edges before the checkpoint in front of them.  The
   circuit-sized arrays (values, pending deques, committed edges,
   evaluation stamps, freeze and boundary marks) live in the workspace;
   a run resets the entries of its cone and boundary signals and bars
   every other gate from evaluation by a [max_int] stamp.  The
   transaction pool and queue carry over from run to run. *)
type checkpoint = {
  ck_value : Bytes.t; (* signal -> committed value, '\001' high *)
  ck_edges_from : Digital.edge list array;
      (* signal -> its baseline edges at or after the instant: a suffix
         of the baseline's own list *)
  ck_tx_off : int array; (* signal -> first live transaction; length nsignals + 1 *)
  ck_tx_key : float array;
  ck_tx_rank : int array;
  ck_tx_value : Bytes.t;
}

let byte b = if b then '\001' else '\000'

(* The replay's state on the way to [time]; [from] holds each signal's
   baseline edges at or after the previous checkpoint and moves on to
   [time].  An input switch carries its rank in [int1] ({!seed_input});
   a driver transaction ranks by its signal. *)
let capture st ~inputs ~(from : Digital.edge list array) ~time =
  let rec drop = function (e : Digital.edge) :: rest when e.Digital.at < time -> drop rest | l -> l in
  Array.iteri (fun sid es -> from.(sid) <- drop es) from;
  let nsignals = Array.length st.pending and k = st.ctl in
  let off = Array.make (nsignals + 1) 0 in
  for sid = 0 to nsignals - 1 do
    let q : Slot_deque.t = st.pending.(sid) in
    off.(sid + 1) <- off.(sid) + (q.tail - q.head)
  done;
  let n = off.(nsignals) in
  let key = Array.make n 0. and rank = Array.make n 0 and value = Bytes.make n '\000' in
  for sid = 0 to nsignals - 1 do
    let q : Slot_deque.t = st.pending.(sid) in
    for i = q.head to q.tail - 1 do
      let slot = q.buf.(i) and j = off.(sid) + i - q.head in
      key.(j) <- k.Run_control.at.(slot);
      rank.(j) <- (if Bytes.get inputs sid = '\001' then k.Run_control.int1.(slot) else sid);
      Bytes.set value j (Bytes.get k.Run_control.flag slot)
    done
  done;
  {
    ck_value = Bytes.init nsignals (fun sid -> byte st.value.(sid));
    ck_edges_from = Array.copy from;
    ck_tx_off = off;
    ck_tx_key = key;
    ck_tx_rank = rank;
    ck_tx_value = value;
  }

type cone_workspace = {
  cw_cfg : config;
  cw_cp : Compiled.t;
  cw_levels : bool array;
  cw_inputs : Bytes.t; (* signal -> '\001' iff a driven primary input *)
  cw_base_edges : Digital.edge list array; (* the baseline's committed edges *)
  cw_ckpts : checkpoint Checkpoint_grid.t;
  cw_value : bool array;
  cw_pending : Slot_deque.t array;
  cw_rev_edges : Digital.edge list array; (* committed since the run's checkpoint *)
  cw_from : Digital.edge list array; (* member -> [ck_edges_from] of the run's checkpoint *)
  cw_seen : int array; (* [max_int] outside the current cone *)
  cw_bnd : Bytes.t; (* signal -> '\001' iff a boundary feed of the latest run *)
  cw_fz : Watchdog.frozen;
  mutable cw_prev : (Compiled.cone * int list * state) option;
      (* the latest run, with its boundary signals *)
}

let cone_workspace ?grid ~compiled:cp ~(baseline : result) cfg c ~drives =
  Compiled.check ~who:"Classic.cone_workspace" cp ~overlay:cfg.overlay cfg.tech c;
  let drives_tbl, levels = Drive.bind ~who:"Classic.cone_workspace" cp drives in
  let nsignals = cp.Compiled.nsignals in
  if Array.length baseline.final_levels <> nsignals then
    invalid_arg "Classic.cone_workspace: baseline is for a different netlist";
  let inputs = Bytes.init nsignals (fun sid -> byte (Hashtbl.mem drives_tbl sid)) in
  let base_edges = Lazy.force baseline.edges in
  let rp = start ~compiled:cp cfg c ~drives in
  let from = Array.copy base_edges in
  {
    cw_cfg = cfg;
    cw_cp = cp;
    cw_levels = levels;
    cw_inputs = inputs;
    cw_base_edges = base_edges;
    cw_ckpts =
      Checkpoint_grid.take ?grid ~watchdog:(cfg.watchdog <> None) rp.ctl
        ~last:baseline.end_time
        ~capture:(fun time -> capture rp ~inputs ~from ~time)
        ~advance:(fun upto -> ignore (advance rp ~upto))
        ~replayed:(fun () -> (advance rp ~upto:infinity).stats = baseline.stats);
    cw_value = Array.copy levels;
    cw_pending = Array.init nsignals (fun _ -> Slot_deque.create ());
    cw_rev_edges = Array.make nsignals [];
    cw_from = Array.make nsignals [];
    cw_seen = Array.make cp.Compiled.ngates max_int;
    cw_bnd = Bytes.make nsignals '\000';
    cw_fz = Watchdog.frozen ~nsignals;
    cw_prev = None;
  }

let checkpoints ws = ws.cw_ckpts.Checkpoint_grid.instants

(* Undo what the latest run left outside its cone and hand back its
   kernel, whose pool and queue the next run reuses. *)
let reclaim ws =
  match ws.cw_prev with
  | None -> None
  | Some (cone, bnd, prev) ->
      Array.iter (fun g -> ws.cw_seen.(g) <- max_int) cone.Compiled.cone_gates;
      List.iter (fun sid -> Bytes.set ws.cw_bnd sid '\000') bnd;
      Watchdog.thaw ws.cw_fz;
      ws.cw_prev <- None;
      Some prev.ctl

let start_cone ?(injections = []) ws ~(cone : Compiled.cone) ~from =
  let cp = ws.cw_cp in
  Compiled.check_cone ~who:"Classic.start_cone" cp cone;
  let grid = ws.cw_ckpts in
  if from < 0 || from >= Array.length grid.Checkpoint_grid.states then
    invalid_arg "Classic.start_cone: no such checkpoint";
  let ck = grid.Checkpoint_grid.states.(from) and ck_time = grid.Checkpoint_grid.instants.(from) in
  List.iter
    (fun (sid, toggles) ->
      if sid < 0 || sid >= cp.Compiled.nsignals then
        invalid_arg "Classic.start_cone: injection on unknown signal";
      if not (Compiled.mem_sorted cone.Compiled.cone_signals sid) then
        invalid_arg "Classic.start_cone: injection outside the cone";
      if List.exists (fun (at, _) -> at < ck_time) toggles then
        invalid_arg "Classic.start_cone: injection before the checkpoint")
    injections;
  let pool = reclaim ws in
  let st =
    make_state ?pool ~cone:true ws.cw_cfg cp ~levels:ws.cw_levels ~value:ws.cw_value
      ~pending:ws.cw_pending ~rev_edges:ws.cw_rev_edges ~seen:ws.cw_seen ~fz:ws.cw_fz
  in
  let restore sid =
    ws.cw_value.(sid) <- Bytes.get ck.ck_value sid = '\001';
    ws.cw_rev_edges.(sid) <- [];
    ws.cw_from.(sid) <- ck.ck_edges_from.(sid);
    let q : Slot_deque.t = ws.cw_pending.(sid) in
    q.head <- 0;
    q.tail <- 0
  in
  let requeue sid =
    for k = ck.ck_tx_off.(sid) to ck.ck_tx_off.(sid + 1) - 1 do
      Slot_deque.push ws.cw_pending.(sid)
        (enqueue_tx st ~rank:ck.ck_tx_rank.(k) ~sid ~at:ck.ck_tx_key.(k)
           ~value:(Bytes.get ck.ck_tx_value k = '\001'))
    done
  in
  Array.iter (fun g -> ws.cw_seen.(g) <- 0) cone.Compiled.cone_gates;
  Array.iter
    (fun sid ->
      restore sid;
      requeue sid)
    cone.Compiled.cone_signals;
  let bnd = ref [] in
  Array.iteri
    (fun k g ->
      let sid = cp.Compiled.pin_fanin.(cp.Compiled.g_base.(g) + cone.Compiled.cone_bnd_pin.(k)) in
      if Bytes.get ws.cw_bnd sid = '\000' then begin
        Bytes.set ws.cw_bnd sid '\001';
        restore sid;
        bnd := sid :: !bnd;
        if Bytes.get ws.cw_inputs sid = '\001' then requeue sid
        else
          List.iter
            (fun (e : Digital.edge) ->
              ignore
                (enqueue_tx st ~rank:sid ~sid ~at:e.Digital.at
                   ~value:(e.Digital.polarity = Transition.Rising)))
            ck.ck_edges_from.(sid)
      end)
    cone.Compiled.cone_bnd_gate;
  List.iter (add_injection st) injections;
  ws.cw_prev <- Some (cone, !bnd, st);
  st

(* The baseline's edges before the run's checkpoint, then the run's
   own; the baseline's list itself when the run ended the signal as the
   baseline did. *)
let cone_edges ws sid =
  let from = ws.cw_from.(sid) and fresh = List.rev ws.cw_rev_edges.(sid) in
  if fresh = from then ws.cw_base_edges.(sid)
  else
    let rec prefix acc l =
      if l == from then List.rev_append acc fresh
      else match l with e :: rest -> prefix (e :: acc) rest | [] -> assert false
    in
    prefix [] ws.cw_base_edges.(sid)

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
  Run_control.revive st.ctl

let session_inject st injection =
  add_injection st injection;
  Run_control.revive st.ctl

let session_finished st = st.ctl.Run_control.finished
let session_result st = snapshot st

let edges_of_name result name =
  match Netlist.find_signal result.circuit name with
  | Some sid -> (Lazy.force result.edges).(sid)
  | None -> raise Not_found
