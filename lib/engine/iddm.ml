module Netlist = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check
module Waveform = Halotis_wave.Waveform
module Transition = Halotis_wave.Transition
module Digital = Halotis_wave.Digital
module Tech = Halotis_tech.Tech
module Delay_model = Halotis_delay.Delay_model
module Heap = Halotis_util.Heap
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Watchdog = Halotis_guard.Watchdog

type config = {
  tech : Tech.t;
  overlay : Halotis_tech.Param_overlay.t;
  delay_kind : Delay_model.kind;
  cancellation : bool;
  t_stop : float option;
  max_events : int;
  trace : bool;
  budget : Budget.t;
  watchdog : Watchdog.config option;
}

let config ?(overlay = Halotis_tech.Param_overlay.empty)
    ?(delay_kind = Delay_model.Ddm) ?(cancellation = true) ?t_stop
    ?(max_events = 10_000_000) ?(trace = false) ?(budget = Budget.unlimited) ?watchdog tech =
  { tech; overlay; delay_kind; cancellation; t_stop; max_events; trace; budget; watchdog }

type trace_entry = {
  te_signal : Netlist.signal_id;
  te_start : float;
  te_gate : Netlist.gate_id;
  te_pin : int;
  te_cause_signal : Netlist.signal_id;
  te_event_time : float;
}

type result = {
  circuit : Netlist.t;
  run_config : config;
  waveforms : Waveform.t array;
  stats : Stats.t;
  end_time : float;
  truncated : bool;
  stopped_by : Stop.t;
  frozen : (Netlist.signal_id * float) list;
  replay_hazard : bool;
  trace : trace_entry list;
}

type injection = {
  inj_signal : Netlist.signal_id;
  inj_transitions : Transition.t list;
}

(* The netlist's gate records, fanin arrays and load lists are boxed
   structures scattered across the heap; chasing them per event costs
   more cache misses than the arithmetic it feeds.  The run state holds
   a flattened copy instead: every (gate, pin) pair owns a slot in
   globally indexed arrays ([g_base.(gate) + pin]), and fanout is an
   edge list in CSR form.  All of it is built once at setup.

   Events live in a recycled structure-of-arrays pool and are passed
   around as small-int slots: scheduling writes a few flat-array cells
   and pushes the slot into the queue (whose payloads are bare ints),
   so the hot path builds no event, transition or outcome record.  It
   is not allocation-free: under the dev profile every module is
   compiled [-opaque], so a float passed to or returned from a function
   in another module (or one here that is not inlined) is boxed.  The
   kernel keeps those crossings few — ramps go to the waveform as
   scalars ({!Waveform.append_ramp}), and the segment, heap and delay
   arithmetic runs inside the modules that own the arrays — and what
   remains is short-lived boxes that die in the minor heap.
   [ev_dead] is the lazy-cancellation tombstone: Fig. 4's "delete
   Ej-1" marks the slot dead in place instead of restructuring the
   heap, and the main loop discards (and recycles) it when it
   surfaces.  A slot sits in the queue exactly once, so recycling at
   pop time is single-free by construction. *)
type state = {
  cfg : config;
  c : Netlist.t;
  mutable rev_trace : trace_entry list;
  wf : Waveform.t array;
  g_kind : Gate_kind.t array; (* gate -> logic function *)
  g_out : int array; (* gate -> output signal *)
  g_base : int array; (* gate -> first pin slot; length ngates + 1 *)
  pin_fanin : int array; (* pin slot -> driving signal *)
  pin_vt : float array; (* pin slot -> switching threshold *)
  pin_level : Bytes.t; (* pin slot -> current logic level, '\000' / '\001' *)
  pending : Slot_deque.t array;
      (* pin slot -> live scheduled events; [||] = off.  Key-sorted:
         every cancellation at T precedes at most one fresh crossing at
         a key >= T *)
  fan_off : int array; (* signal -> first fanout edge; length nsignals + 1 *)
  fan_gate : int array; (* fanout edge -> loading gate *)
  fan_pin : int array; (* fanout edge -> pin of that gate *)
  out_target : bool array; (* gate -> target logic of last output transition *)
  queue : Heap.t;
  (* event pool: parallel arrays indexed by slot *)
  mutable ev_gate : int array; (* -1 = injection splice *)
  mutable ev_pin : int array; (* injection index when ev_gate = -1 *)
  mutable ev_tau : float array; (* causing ramp's slope time *)
  mutable ev_key : float array; (* event instant *)
  mutable ev_rising : Bytes.t;
  mutable ev_dead : Bytes.t;
  mutable ev_free : int array; (* stack of recycled slots *)
  mutable ev_free_top : int;
  cache : Delay_model.Cache.t; (* compiled delay coefficients (shareable) *)
  mutable injections : injection array; (* grows when a live session injects *)
  stats : Stats.t;
  (* guardrails *)
  wd : Watchdog.t option;
  fz : Watchdog.frozen;
  ctl : Run_control.t; (* limits, stop reason, progress *)
  (* Replay-hazard bookkeeping: cone re-simulation (see {!start_cone})
     reconstructs a pin's event history from the {e final} baseline
     waveform of its driving signal.  That reconstruction is exact
     except in one case: a degradation delay of tp <= 0 makes a gate
     rewrite its output ramp from a start at or before an event this
     run already popped on a loading pin — the popped event's crossing
     is no longer part of the final waveform, so a replay seeded from
     it would miss the event.  [last_pop.(slot)] is the key of the
     newest event processed on each pin; an append whose cancellation
     front reaches at or below it flags the run. *)
  last_pop : float array; (* pin slot -> key of newest processed event *)
  mutable replay_hazard : bool;
}

(* Heap tie-break ranks: intrinsic to the event's identity, so equal-key
   pop order is reproducible across runs that insert the same events in
   different orders (a cone replay vs the full run).  Pin events rank by
   their globally unique pin slot; injection splices rank below every
   pin slot, in registration order ({!Run_control.injection_rank}). *)

let grow_pool st =
  let cap = Array.length st.ev_gate in
  let ncap = max 64 (2 * cap) in
  let gi = Array.make ncap (-1) in
  Array.blit st.ev_gate 0 gi 0 cap;
  st.ev_gate <- gi;
  let pi = Array.make ncap (-1) in
  Array.blit st.ev_pin 0 pi 0 cap;
  st.ev_pin <- pi;
  let ta = Array.make ncap 0. in
  Array.blit st.ev_tau 0 ta 0 cap;
  st.ev_tau <- ta;
  let ke = Array.make ncap 0. in
  Array.blit st.ev_key 0 ke 0 cap;
  st.ev_key <- ke;
  let ri = Bytes.make ncap '\000' in
  Bytes.blit st.ev_rising 0 ri 0 cap;
  st.ev_rising <- ri;
  let de = Bytes.make ncap '\000' in
  Bytes.blit st.ev_dead 0 de 0 cap;
  st.ev_dead <- de;
  (* the free stack is empty when the pool grows; refill with the slots
     just minted *)
  let free = Array.make ncap 0 in
  for i = 0 to ncap - cap - 1 do
    free.(i) <- cap + i
  done;
  st.ev_free <- free;
  st.ev_free_top <- ncap - cap

let alloc_event st =
  if st.ev_free_top = 0 then grow_pool st;
  st.ev_free_top <- st.ev_free_top - 1;
  st.ev_free.(st.ev_free_top)

let free_event st slot =
  st.ev_free.(st.ev_free_top) <- slot;
  st.ev_free_top <- st.ev_free_top + 1

(* [Gate_kind.eval_bool] over the flat level bytes, without building a
   per-call input array.  Same boolean function, same arity handling. *)
let rec all_set lv base n i =
  i >= n || (Bytes.get lv (base + i) <> '\000' && all_set lv base n (i + 1))

let rec any_set lv base n i =
  i < n && (Bytes.get lv (base + i) <> '\000' || any_set lv base n (i + 1))

let rec parity_set lv base n i acc =
  if i >= n then acc else parity_set lv base n (i + 1) (acc <> (Bytes.get lv (base + i) <> '\000'))

let eval_gate kind lv base n =
  let v i = Bytes.get lv (base + i) <> '\000' in
  match (kind : Gate_kind.t) with
  | Buf -> v 0
  | Inv -> not (v 0)
  | And _ -> all_set lv base n 0
  | Nand _ -> not (all_set lv base n 0)
  | Or _ -> any_set lv base n 0
  | Nor _ -> not (any_set lv base n 0)
  | Xor _ -> parity_set lv base n 0 false
  | Xnor _ -> not (parity_set lv base n 0 false)
  | Aoi21 -> not ((v 0 && v 1) || v 2)
  | Oai21 -> not ((v 0 || v 1) && v 2)
  | Mux2 -> if v 2 then v 1 else v 0

let schedule st ~key ~gate ~pin ~slot ~rising ~tau_in =
  let ev = alloc_event st in
  st.ev_gate.(ev) <- gate;
  st.ev_pin.(ev) <- pin;
  st.ev_tau.(ev) <- tau_in;
  st.ev_key.(ev) <- key;
  Bytes.set st.ev_rising ev (if rising then '\001' else '\000');
  Bytes.set st.ev_dead ev '\000';
  Heap.insert st.queue ~key ~rank:slot ev;
  if st.cfg.cancellation then Slot_deque.push st.pending.(slot) ev;
  st.stats.Stats.events_scheduled <- st.stats.Stats.events_scheduled + 1

(* Fig. 4's "delete Ej-1": drop every pending event on this input whose
   instant falls at or after the start of the newly appended ramp —
   the waveform from that point on is governed by the new ramp, so
   those crossings can no longer happen.  The invalidated events form
   a suffix of the pin's (key-sorted) deque; each is tombstoned in
   place and reclaimed when the queue reaches it. *)
let cancel_invalidated st ~slot ~from_time =
  (* The newly appended ramp rewrites the waveform from [from_time] on.
     If this pin already processed an event at or after that instant
     (possible only when degradation drives tp <= 0), the final
     waveform no longer records that event — a cone replay seeded from
     final waveforms would diverge here, so flag the run. *)
  if from_time <= st.last_pop.(slot) then st.replay_hazard <- true;
  let pq : Slot_deque.t = st.pending.(slot) in
  let buf = pq.buf in
  let i = ref (pq.tail - 1) in
  while !i >= pq.head && st.ev_key.(buf.(!i)) >= from_time do
    Bytes.set st.ev_dead buf.(!i) '\001';
    st.stats.Stats.events_filtered <- st.stats.Stats.events_filtered + 1;
    decr i
  done;
  pq.tail <- !i + 1

(* Propagate a freshly appended ramp on [sid] to its fanout: cancel
   invalidated pending events, then schedule the new crossing.  The ramp
   arrives as scalars, the way {!Waveform.append_ramp} stored it. *)
let fan_out st sid ~accepted ~start ~slope_time ~rising =
  for e = st.fan_off.(sid) to st.fan_off.(sid + 1) - 1 do
    let lg = st.fan_gate.(e) in
    let lpin = st.fan_pin.(e) in
    let slot = st.g_base.(lg) + lpin in
    if st.cfg.cancellation then cancel_invalidated st ~slot ~from_time:start;
    if accepted then begin
      let crossing = Waveform.last_crossing st.wf.(sid) ~vt:st.pin_vt.(slot) in
      if not (Float.is_nan crossing) then
        schedule st ~key:crossing ~gate:lg ~pin:lpin ~slot ~rising ~tau_in:slope_time
    end
  done

let process_pin_event st ~now ~gate ~pin ~rising ~tau_in =
  let base = st.g_base.(gate) in
  Bytes.set st.pin_level (base + pin) (if rising then '\001' else '\000');
  let new_out = eval_gate st.g_kind.(gate) st.pin_level base (st.g_base.(gate + 1) - base) in
  if new_out = st.out_target.(gate) then
    st.stats.Stats.noop_evaluations <- st.stats.Stats.noop_evaluations + 1
  else if st.fz.Watchdog.fz_any && Bytes.get st.fz.Watchdog.fz_marks st.g_out.(gate) = '\001'
  then
    (* frozen output: the gate evaluated but emits nothing *)
    st.stats.Stats.noop_evaluations <- st.stats.Stats.noop_evaluations + 1
  else begin
    let out_sid = st.g_out.(gate) in
    Delay_model.Cache.eval st.cache gate st.cfg.delay_kind ~rising_out:new_out ~pin
      ~tau_in ~t_event:now
      ~last_output_start:(Waveform.last_start_or_nan st.wf.(out_sid));
    let start = now +. Delay_model.Cache.tp st.cache in
    let slope_time = Delay_model.Cache.tau_out st.cache in
    st.out_target.(gate) <- new_out;
    let r = Waveform.append_ramp st.wf.(out_sid) ~start ~slope_time ~rising:new_out in
    st.stats.Stats.transitions_annulled <-
      st.stats.Stats.transitions_annulled + Waveform.annulled r;
    let accepted = Waveform.accepted r in
    if accepted then begin
      st.stats.Stats.transitions_emitted <- st.stats.Stats.transitions_emitted + 1;
      (match st.wd with
      | Some wd ->
          if Watchdog.record wd ~signal:out_sid ~now:start then
            Option.iter (Run_control.halt st.ctl)
              (Watchdog.trip wd st.c st.fz ~signal:out_sid ~at:start)
      | None -> ());
      if st.cfg.trace then
        st.rev_trace <-
          {
            te_signal = out_sid;
            te_start = start;
            te_gate = gate;
            te_pin = pin;
            te_cause_signal = st.pin_fanin.(base + pin);
            te_event_time = now;
          }
          :: st.rev_trace
    end;
    fan_out st out_sid ~accepted ~start ~slope_time ~rising:new_out
  end

(* Append an external transition (an injection splice or a live
   session's input) to [sid] and propagate it. *)
let append_external st sid (tr : Transition.t) =
  let rising =
    match tr.Transition.polarity with Transition.Rising -> true | Transition.Falling -> false
  in
  let start = tr.Transition.start and slope_time = tr.Transition.slope_time in
  let r = Waveform.append_ramp st.wf.(sid) ~start ~slope_time ~rising in
  fan_out st sid ~accepted:(Waveform.accepted r) ~start ~slope_time ~rising

(* Splice an injection's transitions into the victim waveform exactly
   as a driving gate would append its own ramps: degradation,
   truncation and event cancellation all apply.  The splice itself is
   external stimulus, so — like primary-input drives — it does not
   count towards [transitions_emitted]. *)
let process_injection st inj = List.iter (append_external st inj.inj_signal) inj.inj_transitions

(* Register an injection and queue its splice as a first-class event so
   it happens at its instant, after any earlier native activity on the
   victim has been appended.  Also the live-session [inject] path: the
   injection array grows, never shrinks, so pool slots referencing
   earlier indices stay valid. *)
let add_injection st inj =
  if inj.inj_signal < 0 || inj.inj_signal >= Array.length st.wf then
    invalid_arg "Iddm.run: injection on unknown signal";
  match inj.inj_transitions with
  | [] -> ()
  | first :: _ ->
      let idx = Array.length st.injections in
      st.injections <- Array.append st.injections [| inj |];
      let ev = alloc_event st in
      st.ev_gate.(ev) <- -1;
      st.ev_pin.(ev) <- idx;
      st.ev_tau.(ev) <- 0.;
      st.ev_key.(ev) <- first.Transition.start;
      Bytes.set st.ev_rising ev '\000';
      Bytes.set st.ev_dead ev '\000';
      Heap.insert st.queue ~key:first.Transition.start ~rank:(Run_control.injection_rank idx) ev

(* A paused run is its state: [ctl] carries what the main loop kept in
   locals when [run] was monolithic. *)
type session = state

(* The per-run state shared by a whole-circuit [start] and a
   cone-restricted [start_cone]: everything except the circuit-sized
   arrays, which [start] allocates fresh and a cone run borrows from its
   workspace. *)
let make_state ?pool cfg c (cp : Compiled.t) ~wf ~pin_level ~out_target ~pending
    ~last_pop ~fz =
  let st =
    {
      cfg;
      c;
      rev_trace = [];
      wf;
      g_kind = cp.Compiled.g_kind;
      g_out = cp.Compiled.g_out;
      g_base = cp.Compiled.g_base;
      pin_fanin = cp.Compiled.pin_fanin;
      pin_vt = cp.Compiled.pin_vt;
      pin_level;
      pending;
      fan_off = cp.Compiled.fan_off;
      fan_gate = cp.Compiled.fan_gate;
      fan_pin = cp.Compiled.fan_pin;
      out_target;
      queue =
        (match pool with Some p -> p.queue | None -> Heap.create ~capacity:64 ());
      ev_gate = [||];
      ev_pin = [||];
      ev_tau = [||];
      ev_key = [||];
      ev_rising = Bytes.empty;
      ev_dead = Bytes.empty;
      ev_free = [||];
      ev_free_top = 0;
      cache = cp.Compiled.cache;
      injections = [||];
      stats = Stats.create ();
      wd = Option.map (fun w -> Watchdog.create w ~nsignals:cp.Compiled.nsignals) cfg.watchdog;
      fz;
      ctl = Run_control.create cfg.budget ~t_stop:cfg.t_stop ~max_events:cfg.max_events;
      last_pop;
      replay_hazard = false;
    }
  in
  (* [pool]: a drained earlier state whose event pool and queue carry
     over (cone runs, see {!start_cone}) *)
  (match pool with
  | None -> ()
  | Some p ->
      st.ev_gate <- p.ev_gate;
      st.ev_pin <- p.ev_pin;
      st.ev_tau <- p.ev_tau;
      st.ev_key <- p.ev_key;
      st.ev_rising <- p.ev_rising;
      st.ev_dead <- p.ev_dead;
      st.ev_free <- p.ev_free;
      st.ev_free_top <- p.ev_free_top);
  st

let start ?(injections = []) ?compiled cfg c ~drives =
  (* Everything that depends only on (netlist, tech) comes precompiled
     or is compiled here; per-run state is built fresh below. *)
  let cp = Compiled.resolve ~who:"Iddm.start" ?compiled ~overlay:cfg.overlay cfg.tech c in
  let drives_tbl, levels = Drive.bind ~who:"Iddm.start" cp drives in
  let vdd = Tech.vdd cfg.tech in
  let nsignals = cp.Compiled.nsignals and npins = cp.Compiled.npins in
  let ngates = cp.Compiled.ngates in
  let wf =
    Array.init nsignals (fun sid ->
        Waveform.create ~initial:(if levels.(sid) then vdd else 0.) ~vdd ())
  in
  let pin_level = Bytes.make (max 1 npins) '\000' in
  for p = 0 to npins - 1 do
    Bytes.set pin_level p (if levels.(cp.Compiled.pin_fanin.(p)) then '\001' else '\000')
  done;
  let out_target =
    Array.init ngates (fun gid -> levels.(cp.Compiled.g_out.(gid)))
  in
  let st =
    make_state cfg c cp ~wf ~pin_level ~out_target
      ~pending:
        (if cfg.cancellation then
           Array.init npins (fun _ -> Slot_deque.create ())
         else [||])
      ~last_pop:(Array.make (max 1 npins) neg_infinity)
      ~fz:(Watchdog.frozen ~nsignals)
  in
  (* Seed: apply the primary-input drives, then schedule the crossings
     the finished input waveforms actually contain. *)
  Hashtbl.iter
    (fun sid (d : Drive.t) ->
      List.iter (fun tr -> ignore (Waveform.append st.wf.(sid) tr)) d.Drive.transitions)
    drives_tbl;
  Hashtbl.iter
    (fun sid (_ : Drive.t) ->
      for e = st.fan_off.(sid) to st.fan_off.(sid + 1) - 1 do
        let lg = st.fan_gate.(e) in
        let lpin = st.fan_pin.(e) in
        let slot = st.g_base.(lg) + lpin in
        List.iter
          (fun (crossing, (tr : Transition.t)) ->
            schedule st ~key:crossing ~gate:lg ~pin:lpin ~slot
              ~rising:
                (match tr.Transition.polarity with
                | Transition.Rising -> true
                | Transition.Falling -> false)
              ~tau_in:tr.Transition.slope_time)
          (Waveform.crossings_with_transitions st.wf.(sid) ~vt:st.pin_vt.(slot))
      done)
    drives_tbl;
  List.iter (fun inj -> add_injection st inj) injections;
  st

let snapshot st =
  let ctl = st.ctl in
  st.stats.Stats.stopped_by <- ctl.Run_control.stop;
  {
    circuit = st.c;
    run_config = st.cfg;
    waveforms = st.wf;
    stats = st.stats;
    end_time = ctl.Run_control.end_time;
    truncated = not (Stop.completed ctl.Run_control.stop);
    stopped_by = ctl.Run_control.stop;
    frozen = List.rev st.fz.Watchdog.fz_rev;
    replay_hazard = st.replay_hazard;
    trace = List.rev st.rev_trace;
  }

(* The main loop, paused at [upto].  Pausing is free: {!Run_control.next}
   inspects the heap minimum {e before} popping, so stopping short of
   the horizon leaves the queue exactly as a one-shot run would have it
   at that point — resuming pops the same events in the same order, and
   the stepped run stays bit-identical to the one-shot run (the
   equivalence suite pins this down). *)
let advance st ~upto =
  let ctl = st.ctl in
  let continue = ref true in
  while !continue do
    let t = Run_control.next ctl st.queue ~upto in
    if Float.is_nan t then continue := false
    else begin
      let ev = Heap.pop st.queue in
      let gate = st.ev_gate.(ev) and pin = st.ev_pin.(ev) in
      if Bytes.get st.ev_dead ev = '\001' then begin
        (* a cancelled (tombstoned) event surfacing: recycle it *)
        st.stats.Stats.stale_skipped <- st.stats.Stats.stale_skipped + 1;
        free_event st ev
      end
      else if gate < 0 then begin
        (* Injection splices are stimulus, not simulation work; only pin
           events count as processed (and against the budget). *)
        Run_control.reached ctl t;
        free_event st ev;
        process_injection st st.injections.(pin)
      end
      else if
        Run_control.admit ctl ~at:t ~emitted:st.stats.Stats.transitions_emitted
          ~queue:(Heap.length st.queue)
      then begin
        st.stats.Stats.events_processed <- st.stats.Stats.events_processed + 1;
        st.last_pop.(st.g_base.(gate) + pin) <- t;
        let rising = Bytes.get st.ev_rising ev = '\001' in
        let tau_in = st.ev_tau.(ev) in
        if st.cfg.cancellation then begin
          (* the oldest live entry of its pin deque is this event *)
          let pq : Slot_deque.t = st.pending.(st.g_base.(gate) + pin) in
          if pq.head < pq.tail && pq.buf.(pq.head) = ev then pq.head <- pq.head + 1
        end;
        free_event st ev;
        (* a Halt-mode watchdog trip in here halts [ctl] *)
        process_pin_event st ~now:t ~gate ~pin ~rising ~tau_in
      end
      else free_event st ev
    end
  done;
  snapshot st

(* Cone-restricted re-simulation: the cone's member signals get their
   own waveforms, the finished [baseline] waveforms are aliased
   (read-only) everywhere else.  Boundary feeds replay the baseline
   crossings of their driving signals verbatim — exactly the events the
   full run processed on those pins, because a processed pin event and
   a final waveform crossing are the same thing whenever the baseline
   was free of replay hazards (the caller's obligation, see {!Sim.Cone}),
   and intrinsic heap ranks make the replay resolve equal-key ties
   exactly as the full run did.  From there the cone evolves under the
   same kernel as a full run; with the injection spliced in, the delta
   against the baseline cone run equals the full-run delta, which is all
   campaign classification consumes.

   Time slicing: before the strike, a cone run only replays the
   baseline.  So the workspace steps one replay of the baseline through
   a grid of checkpoints, and a cone run starts from the latest one at
   or before its strike instead of from the DC state.  A checkpoint at
   [t] is the full run's state after every event keyed before [t]: pin
   levels, output targets, last-pop keys, the live pending events of
   every pin, and each waveform as a prefix of its final baseline
   waveform plus the few segments appended by then but annulled later.
   From it a cone run restores only its cone: member waveforms, member
   gates' pins and targets, the live events of pins fed from inside the
   cone, and — for the boundary feeds — the final baseline crossings at
   or after [t], which are the boundary events a run from the DC state
   would still hold queued at [t].  Everything a run from the DC state
   does before [t] is the same in a clean and a struck run sharing the
   checkpoint, so their counter delta is unchanged; only events the
   full run had already tombstoned are left out, and those would be
   skipped as stale in both.  The DC state is checkpoint 0, so every
   cone run takes this one path.

   A cone run reads and writes only its cone: the member gates' pins
   and output targets, the member signals' waveforms, the signals it
   freezes, and the event pool.  (The cone is closed under fanout, so
   no event ever lands on a non-member gate.)  The workspace therefore
   allocates the circuit-sized per-run arrays once, and each run resets
   just the cone's entries; entries a previous run left behind outside
   the current cone are never read.  Two things do need undoing: the
   previous cone's member waveforms, which the next cone may read as
   boundary feeds, go back to their baseline aliases, and the previous
   run's freeze marks are cleared.  The event pool and queue carry over
   once fully drained — a run cut short by its horizon or a guardrail
   leaves events queued.  Pool slot numbers never reach the pop order
   (the queue ranks by pin slot), so reuse is unobservable. *)
type checkpoint = {
  ck_time : float; (* [neg_infinity] for the DC state *)
  ck_pin_level : Bytes.t;
  ck_out_target : bool array;
  ck_last_pop : float array;
  ck_wf_len : int array; (* signal -> segments shared with its final waveform *)
  ck_wf_extra : Transition.t list array; (* signal -> live segments annulled later *)
  ck_ev_off : int array; (* pin slot -> first live event; length npins + 1 *)
  ck_ev_key : float array;
  ck_ev_tau : float array;
  ck_ev_rising : Bytes.t;
}

(* Checkpoints after the DC state.  A strike lands anywhere on the
   horizon, so they are spread evenly in time over the baseline's
   active span; the last sits just past its last event. *)
let grid_points = 16

let capture st ~(final : Waveform.t array) ~time =
  let npins = Array.length st.pending in
  let off = Array.make (npins + 1) 0 in
  for p = 0 to npins - 1 do
    let pq : Slot_deque.t = st.pending.(p) in
    off.(p + 1) <- off.(p) + (pq.tail - pq.head)
  done;
  let n = off.(npins) in
  let key = Array.make n 0. and tau = Array.make n 0. and rising = Bytes.make n '\000' in
  for p = 0 to npins - 1 do
    let pq : Slot_deque.t = st.pending.(p) in
    for i = pq.head to pq.tail - 1 do
      let ev = pq.buf.(i) and k = off.(p) + i - pq.head in
      key.(k) <- st.ev_key.(ev);
      tau.(k) <- st.ev_tau.(ev);
      Bytes.set rising k (Bytes.get st.ev_rising ev)
    done
  done;
  let nsignals = Array.length st.wf in
  let wf_len = Array.make nsignals 0 and wf_extra = Array.make nsignals [] in
  for sid = 0 to nsignals - 1 do
    let w = st.wf.(sid) in
    let len = Waveform.common_prefix w final.(sid) in
    wf_len.(sid) <- len;
    if len < Waveform.segment_count w then wf_extra.(sid) <- Waveform.transitions_from w len
  done;
  {
    ck_time = time;
    ck_pin_level = Bytes.copy st.pin_level;
    ck_out_target = Array.copy st.out_target;
    ck_last_pop = Array.copy st.last_pop;
    ck_wf_len = wf_len;
    ck_wf_extra = wf_extra;
    ck_ev_off = off;
    ck_ev_key = key;
    ck_ev_tau = tau;
    ck_ev_rising = rising;
  }

(* The DC checkpoint plus, when the replay of the baseline reproduces
   its counters exactly, the grid.  A watchdog's sliding window would
   need the history before the checkpoint, so its runs keep the DC
   state only. *)
let checkpoints ?grid cfg cp c ~drives (baseline : result) =
  let rp = start ~compiled:cp { cfg with trace = false } c ~drives in
  let final = baseline.waveforms in
  let dc = capture rp ~final ~time:neg_infinity in
  if cfg.watchdog <> None || Heap.is_empty rp.queue then [| dc |]
  else begin
    let first = Heap.min_key rp.queue and last = baseline.end_time in
    let grid =
      match grid with
      | Some g -> g
      | None ->
          List.init grid_points (fun k ->
              if k = grid_points - 1 then Float.succ last
              else first +. ((last -. first) *. float_of_int (k + 1) /. float_of_int grid_points))
    in
    (* an instant at or before the first event would repeat the DC state *)
    let grid = List.sort_uniq Float.compare (List.filter (fun t -> t > first) grid) in
    let later =
      List.map
        (fun t ->
          ignore (advance rp ~upto:(Float.pred t));
          capture rp ~final ~time:t)
        grid
    in
    let replayed = advance rp ~upto:infinity in
    if replayed.stats = baseline.stats then Array.of_list (dc :: later) else [| dc |]
  end

(* A boundary pin's replay: the final baseline crossings of its driving
   signal at its threshold, in time order. *)
type feed = { fd_key : float array; fd_tau : float array; fd_rising : Bytes.t }

let unset_feed = { fd_key = [||]; fd_tau = [||]; fd_rising = Bytes.empty }

type cone_workspace = {
  cw_cfg : config;
  cw_cp : Compiled.t;
  cw_baseline : result;
  cw_ckpts : checkpoint array; (* ascending instants; 0 is the DC state *)
  cw_feeds : feed array; (* pin slot -> its replay, [unset_feed] until first used *)
  cw_wf : Waveform.t array; (* baseline aliases, own waveforms for the current cone *)
  cw_own : Waveform.t array; (* signal -> its own waveform, reused from run to run *)
  cw_pin_level : Bytes.t;
  cw_pending : Slot_deque.t array;
  cw_out_target : bool array;
  cw_last_pop : float array;
  cw_fz : Watchdog.frozen;
  mutable cw_prev : (Compiled.cone * state) option; (* the latest run *)
}

let cone_workspace ?grid ~compiled:cp ~(baseline : result) cfg c ~drives =
  Compiled.check ~who:"Iddm.cone_workspace" cp ~overlay:cfg.overlay cfg.tech c;
  if not cfg.cancellation then
    (* without Fig. 4 cancellation, processed events and final-waveform
       crossings no longer coincide, so boundary seeding is unsound *)
    invalid_arg "Iddm.cone_workspace: requires event cancellation";
  let nsignals = cp.Compiled.nsignals and npins = cp.Compiled.npins in
  if Array.length baseline.waveforms <> nsignals then
    invalid_arg "Iddm.cone_workspace: baseline is for a different netlist";
  {
    cw_cfg = cfg;
    cw_cp = cp;
    cw_baseline = baseline;
    cw_ckpts = checkpoints ?grid cfg cp c ~drives baseline;
    cw_feeds = Array.make npins unset_feed;
    cw_wf = Array.copy baseline.waveforms;
    cw_own =
      Array.map
        (fun w -> Waveform.create ~initial:(Waveform.initial w) ~vdd:(Waveform.vdd w) ())
        baseline.waveforms;
    cw_pin_level = Bytes.make (max 1 npins) '\000';
    cw_pending = Array.init npins (fun _ -> Slot_deque.create ());
    cw_out_target = Array.make cp.Compiled.ngates false;
    cw_last_pop = Array.make (max 1 npins) neg_infinity;
    cw_fz = Watchdog.frozen ~nsignals;
    cw_prev = None;
  }

let checkpoint_count ws = Array.length ws.cw_ckpts

let checkpoint_at ws at =
  let ck = ws.cw_ckpts in
  (* the last index whose instant is <= at; index 0 always qualifies *)
  let lo = ref 0 and hi = ref (Array.length ck) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if ck.(mid).ck_time <= at then lo := mid else hi := mid
  done;
  !lo

let checkpoint_time ws i = ws.cw_ckpts.(i).ck_time

let feed ws slot =
  let f = ws.cw_feeds.(slot) in
  if f != unset_feed then f
  else begin
    let cp = ws.cw_cp in
    let xs =
      Array.of_list
        (Waveform.crossings_with_transitions
           ws.cw_baseline.waveforms.(cp.Compiled.pin_fanin.(slot))
           ~vt:cp.Compiled.pin_vt.(slot))
    in
    let f =
      {
        fd_key = Array.map fst xs;
        fd_tau = Array.map (fun (_, (tr : Transition.t)) -> tr.Transition.slope_time) xs;
        fd_rising =
          Bytes.init (Array.length xs) (fun i ->
              match (snd xs.(i)).Transition.polarity with
              | Transition.Rising -> '\001'
              | Transition.Falling -> '\000');
      }
    in
    ws.cw_feeds.(slot) <- f;
    f
  end

(* Undo what the latest run left outside its own cone's pins and gates
   (see above) and hand back its drained state, whose pool and queue
   the next run reuses. *)
let reclaim ws =
  match ws.cw_prev with
  | None -> None
  | Some (cone, prev) ->
      while not (Heap.is_empty prev.queue) do
        free_event prev (Heap.pop prev.queue)
      done;
      Array.iter
        (fun sid -> ws.cw_wf.(sid) <- ws.cw_baseline.waveforms.(sid))
        cone.Compiled.cone_signals;
      Watchdog.thaw ws.cw_fz;
      ws.cw_prev <- None;
      Some prev

let start_cone ?(injections = []) ws ~(cone : Compiled.cone) ~from =
  let cp = ws.cw_cp in
  Compiled.check_cone ~who:"Iddm.start_cone" cp cone;
  if from < 0 || from >= Array.length ws.cw_ckpts then
    invalid_arg "Iddm.start_cone: no such checkpoint";
  let ck = ws.cw_ckpts.(from) in
  List.iter
    (fun inj ->
      if inj.inj_signal < 0 || inj.inj_signal >= cp.Compiled.nsignals then
        invalid_arg "Iddm.start_cone: injection on unknown signal";
      (* an injection outside the cone would append to an aliased
         baseline waveform — a correctness bug, not a fallback case *)
      if not (Compiled.mem_sorted cone.Compiled.cone_signals inj.inj_signal) then
        invalid_arg "Iddm.start_cone: injection outside the cone";
      match inj.inj_transitions with
      | first :: _ when first.Transition.start < ck.ck_time ->
          invalid_arg "Iddm.start_cone: injection before the checkpoint"
      | _ -> ())
    injections;
  let pool = reclaim ws in
  let final = ws.cw_baseline.waveforms in
  Array.iter
    (fun sid ->
      let w = ws.cw_own.(sid) in
      Waveform.assign_prefix w ~src:final.(sid) ~len:ck.ck_wf_len.(sid);
      List.iter (fun tr -> ignore (Waveform.append w tr)) ck.ck_wf_extra.(sid);
      ws.cw_wf.(sid) <- w)
    cone.Compiled.cone_signals;
  let st =
    make_state ?pool ws.cw_cfg cp.Compiled.circuit cp ~wf:ws.cw_wf ~pin_level:ws.cw_pin_level
      ~out_target:ws.cw_out_target ~pending:ws.cw_pending ~last_pop:ws.cw_last_pop
      ~fz:ws.cw_fz
  in
  ws.cw_prev <- Some (cone, st);
  (* Restore each member gate and seed its pins.  A pin fed from inside
     the cone gets the checkpoint's live events, in key order.  A
     boundary pin (listed in gate, then pin order) replays its driver's
     final baseline crossings from the checkpoint on, the way [start]
     replays primary-input drives. *)
  let bnd = ref 0 and nbnd = Array.length cone.Compiled.cone_bnd_gate in
  Array.iter
    (fun g ->
      ws.cw_out_target.(g) <- ck.ck_out_target.(g);
      let base = cp.Compiled.g_base.(g) in
      for p = base to cp.Compiled.g_base.(g + 1) - 1 do
        Bytes.set ws.cw_pin_level p (Bytes.get ck.ck_pin_level p);
        let pq : Slot_deque.t = ws.cw_pending.(p) in
        pq.head <- 0;
        pq.tail <- 0;
        ws.cw_last_pop.(p) <- ck.ck_last_pop.(p);
        let pin = p - base in
        if
          !bnd < nbnd
          && cone.Compiled.cone_bnd_gate.(!bnd) = g
          && cone.Compiled.cone_bnd_pin.(!bnd) = pin
        then begin
          incr bnd;
          let f = feed ws p in
          let n = Array.length f.fd_key in
          (* the first crossing at or after the checkpoint *)
          let lo = ref 0 and hi = ref n in
          while !lo < !hi do
            let mid = (!lo + !hi) / 2 in
            if f.fd_key.(mid) < ck.ck_time then lo := mid + 1 else hi := mid
          done;
          for e = !lo to n - 1 do
            schedule st ~key:f.fd_key.(e) ~gate:g ~pin ~slot:p
              ~rising:(Bytes.get f.fd_rising e = '\001')
              ~tau_in:f.fd_tau.(e)
          done
        end
        else
          for e = ck.ck_ev_off.(p) to ck.ck_ev_off.(p + 1) - 1 do
            schedule st ~key:ck.ck_ev_key.(e) ~gate:g ~pin ~slot:p
              ~rising:(Bytes.get ck.ck_ev_rising e = '\001')
              ~tau_in:ck.ck_ev_tau.(e)
          done
      done)
    cone.Compiled.cone_gates;
  List.iter (add_injection st) injections;
  st

let run ?injections ?compiled cfg c ~drives =
  advance (start ?injections ?compiled cfg c ~drives) ~upto:infinity

let session_set_input st sid transitions =
  Drive.check_input ~who:"Iddm.session_set_input" st.c sid;
  List.iter (append_external st sid) transitions;
  Run_control.revive st.ctl st.queue

let session_inject st inj =
  add_injection st inj;
  Run_control.revive st.ctl st.queue

let session_finished st = st.ctl.Run_control.finished
let session_result sess = snapshot sess

(* The most recent traced ramp on [signal] at or before [at].  The
   trace is chronological but annulled ramps also appear in it; accept
   only entries that still correspond to a live segment.  The live
   starts are strictly increasing, so one sorted-array binary search
   per trace entry replaces the former O(trace x segments) scan. *)
let live_entry result ~signal ~at =
  let wf = result.waveforms.(signal) in
  let n = Waveform.segment_count wf in
  let starts =
    Array.init n (fun i ->
        (Waveform.get_segment wf i).Waveform.transition.Transition.start)
  in
  let is_live t =
    (* index of the first start > t; any start within tolerance of [t]
       is adjacent to that insertion point *)
    let lo = ref 0 and hi = ref n in
    while !hi > !lo do
      let mid = (!lo + !hi) / 2 in
      if starts.(mid) <= t then lo := mid + 1 else hi := mid
    done;
    let near i = i >= 0 && i < n && Float.abs (starts.(i) -. t) < 1e-9 in
    near (!lo - 1) || near !lo
  in
  List.fold_left
    (fun acc e ->
      if e.te_signal = signal && e.te_start <= at && is_live e.te_start then
        match acc with
        | Some best when best.te_start >= e.te_start -> acc
        | Some _ | None -> Some e
      else acc)
    None result.trace

let explain result ~signal ~at =
  let rec walk signal at acc =
    match live_entry result ~signal ~at with
    | None -> acc
    | Some e -> walk e.te_cause_signal e.te_event_time (e :: acc)
  in
  walk signal at []

let pp_explanation result fmt chain =
  List.iter
    (fun e ->
      Format.fprintf fmt "  %a: %s (pin %d, from %s at %a) -> %s@."
        Halotis_util.Units.pp_time e.te_start
        (Netlist.gate_name result.circuit e.te_gate)
        e.te_pin
        (Netlist.signal_name result.circuit e.te_cause_signal)
        Halotis_util.Units.pp_time e.te_event_time
        (Netlist.signal_name result.circuit e.te_signal))
    chain

let waveform result name =
  match Netlist.find_signal result.circuit name with
  | Some sid -> result.waveforms.(sid)
  | None -> raise Not_found

let output_edges ?vt result =
  let vt = match vt with Some v -> v | None -> Tech.vdd result.run_config.tech /. 2. in
  List.map
    (fun sid ->
      (Netlist.signal_name result.circuit sid, Digital.edges result.waveforms.(sid) ~vt))
    (Netlist.primary_outputs result.circuit)
