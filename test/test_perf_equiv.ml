(* Observational-equivalence suite for the optimized event kernels.

   The hot-path overhaul (pool-slot events, lazy cancellation, SoA
   heap, coefficient cache, SoA waveform store) and the shared compiled
   circuit claim bit-identical results to the straightforward
   algorithm.  This file re-implements both engines the obvious way —
   the boxed polymorphic [Ref_heap] with eager handle-based
   cancellation (classic: one first-in first-out list whose
   simultaneous entries are sorted by the tie rule), per-gate input
   arrays, the uncached
   [Ref_delay.for_gate], structure read from the netlist records — and
   checks that optimized and reference runs agree exactly
   (float-for-float) on random circuits across {DDM, CDM} x
   {cancellation on/off} x {with/without injections}. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Waveform = Halotis_wave.Waveform
module Transition = Halotis_wave.Transition
module Digital = Halotis_wave.Digital
module Tech = Halotis_tech.Tech
module Delay_model = Halotis_delay.Delay_model
module Heap = Halotis_util.Heap
module Gate_kind = Halotis_logic.Gate_kind
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Stats = Halotis_engine.Stats
module Drive = Halotis_engine.Drive
module Dc = Halotis_engine.Dc
module Compiled = Halotis_engine.Compiled
module Prng = Halotis_util.Prng
module Param_overlay = Halotis_tech.Param_overlay

let some_unless_nan x = if Float.is_nan x then None else Some x

let tech = Halotis_tech.Default_lib.tech

(* A run's event cap: its budget's, else the engines' ten-million-event
   safety valve. *)
let event_cap (b : Halotis_guard.Budget.t) =
  Option.value b.Halotis_guard.Budget.max_events ~default:10_000_000

(* ------------------------------------------------------------------ *)
(* Reference IDDM kernel                                              *)
(* ------------------------------------------------------------------ *)

module Ref_iddm = struct
  type ev = {
    gate : int;  (** -1 = injection splice *)
    pin : int;  (** injection index when [gate = -1] *)
    rising : bool;
    tau_in : float;
  }

  type result = {
    waveforms : Waveform.t array;
    stats : Stats.t;
    end_time : float;
    truncated : bool;
  }

  let run ?(injections = []) (cfg : Iddm.config) c ~drives =
    let drives_tbl = Hashtbl.create 16 in
    List.iter (fun (sid, d) -> Hashtbl.replace drives_tbl sid d) drives;
    let input_level sid =
      match Hashtbl.find_opt drives_tbl sid with
      | Some (d : Drive.t) -> d.Drive.initial
      | None -> false
    in
    let levels = Ref_dc.levels c ~input_level in
    let vdd = Tech.vdd cfg.Iddm.tech in
    let nsignals = N.signal_count c and ngates = N.gate_count c in
    let wf =
      Array.init nsignals (fun sid ->
          Waveform.create ~initial:(if levels.(sid) then vdd else 0.) ~vdd ())
    in
    let pin_levels =
      Array.init ngates (fun gid ->
          Array.map (fun sid -> levels.(sid)) (N.gate c gid).N.fanin)
    in
    let vt_table = Halotis_delay.Thresholds.table cfg.Iddm.tech c in
    let out_target = Array.init ngates (fun gid -> levels.((N.gate c gid).N.output)) in
    let loads = Halotis_delay.Loads.of_netlist cfg.Iddm.tech c in
    let queue : ev Ref_heap.t = Ref_heap.create () in
    (* eager cancellation: per (gate, pin), the handles of pending events *)
    let pending = Array.init ngates (fun gid -> Array.map (fun _ -> []) (N.gate c gid).N.fanin) in
    (* global pin-slot offsets — the engine's intrinsic heap tie-break
       ranks, reproduced so equal-key events pop in the same order *)
    let pin_base = Array.make (ngates + 1) 0 in
    for gid = 0 to ngates - 1 do
      pin_base.(gid + 1) <- pin_base.(gid) + Array.length (N.gate c gid).N.fanin
    done;
    let stats = Stats.create () in
    let injections = Array.of_list injections in
    let schedule ~key ~gate ~pin ~rising ~tau_in =
      let h =
        Ref_heap.insert queue ~key ~rank:(pin_base.(gate) + pin) { gate; pin; rising; tau_in }
      in
      if cfg.Iddm.cancellation then pending.(gate).(pin) <- pending.(gate).(pin) @ [ h ];
      stats.Stats.events_scheduled <- stats.Stats.events_scheduled + 1
    in
    let cancel_invalidated ~gate ~pin ~from_time =
      pending.(gate).(pin) <-
        List.filter
          (fun h ->
            match Ref_heap.key_of queue h with
            | None -> false (* already popped *)
            | Some k when k >= from_time ->
                ignore (Ref_heap.remove queue h);
                stats.Stats.events_filtered <- stats.Stats.events_filtered + 1;
                false
            | Some _ -> true)
          pending.(gate).(pin)
    in
    (* Appends [tr] and returns how many stored segments it annulled
       (those starting at or after it) and whether it was stored. *)
    let append w (tr : Transition.t) =
      let before = Waveform.segments w in
      let dropped =
        List.length
          (List.filter
             (fun (s : Waveform.segment) ->
               s.Waveform.transition.Transition.start >= tr.Transition.start)
             before)
      in
      Waveform.append w tr;
      (dropped, Waveform.segment_count w = List.length before - dropped + 1)
    in
    let fan_out sid accepted (tr : Transition.t) =
      let rising =
        match tr.Transition.polarity with
        | Transition.Rising -> true
        | Transition.Falling -> false
      in
      Array.iter
        (fun (lg, lpin) ->
          if cfg.Iddm.cancellation then
            cancel_invalidated ~gate:lg ~pin:lpin ~from_time:tr.Transition.start;
          if accepted then
            match some_unless_nan (Waveform.last_crossing wf.(sid) ~vt:vt_table.(lg).(lpin)) with
            | Some crossing ->
                schedule ~key:crossing ~gate:lg ~pin:lpin ~rising
                  ~tau_in:tr.Transition.slope_time
            | None -> ())
        (N.signal c sid).N.loads
    in
    let process_pin_event ~now ~gate ~pin ~rising ~tau_in =
      pin_levels.(gate).(pin) <- rising;
      let g = N.gate c gate in
      let new_out = Gate_kind.eval_bool g.N.kind pin_levels.(gate) in
      if new_out = out_target.(gate) then
        stats.Stats.noop_evaluations <- stats.Stats.noop_evaluations + 1
      else begin
        let out_sid = g.N.output in
        let resp =
          Ref_delay.for_gate cfg.Iddm.tech c ~loads gate cfg.Iddm.delay_kind
            {
              Ref_delay.rising_out = new_out;
              pin;
              tau_in;
              t_event = now;
              last_output_start = some_unless_nan (Waveform.last_start_or_nan wf.(out_sid));
            }
        in
        let tr =
          Transition.make
            ~start:(now +. resp.Ref_delay.tp)
            ~slope_time:resp.Ref_delay.tau_out
            ~polarity:(if new_out then Transition.Rising else Transition.Falling)
        in
        out_target.(gate) <- new_out;
        let dropped, accepted = append wf.(out_sid) tr in
        stats.Stats.transitions_annulled <- stats.Stats.transitions_annulled + dropped;
        if accepted then stats.Stats.transitions_emitted <- stats.Stats.transitions_emitted + 1;
        fan_out out_sid accepted tr
      end
    in
    let process_injection (inj : Iddm.injection) =
      List.iter
        (fun (tr : Transition.t) ->
          let _, accepted = append wf.(inj.Iddm.inj_signal) tr in
          fan_out inj.Iddm.inj_signal accepted tr)
        inj.Iddm.inj_ramps
    in
    Hashtbl.iter
      (fun sid (d : Drive.t) ->
        List.iter (Waveform.append wf.(sid)) d.Drive.transitions)
      drives_tbl;
    Hashtbl.iter
      (fun sid (_ : Drive.t) ->
        Array.iter
          (fun (lg, lpin) ->
            List.iter
              (fun (crossing, (tr : Transition.t)) ->
                schedule ~key:crossing ~gate:lg ~pin:lpin
                  ~rising:
                    (match tr.Transition.polarity with
                    | Transition.Rising -> true
                    | Transition.Falling -> false)
                  ~tau_in:tr.Transition.slope_time)
              (Waveform.crossings_with_transitions wf.(sid) ~vt:vt_table.(lg).(lpin)))
          (N.signal c sid).N.loads)
      drives_tbl;
    Array.iteri
      (fun idx (inj : Iddm.injection) ->
        match inj.Iddm.inj_ramps with
        | [] -> ()
        | first :: _ ->
            ignore
              (Ref_heap.insert queue ~key:first.Transition.start ~rank:((min_int / 2) + idx)
                 { gate = -1; pin = idx; rising = false; tau_in = 0. }))
      injections;
    let end_time = ref 0. in
    let truncated = ref false in
    let continue = ref true in
    while !continue do
      match Ref_heap.peek_min queue with
      | None -> continue := false
      | Some (t, _) -> (
          match cfg.Iddm.t_stop with
          | Some stop when t > stop -> continue := false
          | Some _ | None ->
              let t, ev = Option.get (Ref_heap.pop_min queue) in
              end_time := Float.max !end_time t;
              if ev.gate < 0 then process_injection injections.(ev.pin)
              else begin
                stats.Stats.events_processed <- stats.Stats.events_processed + 1;
                process_pin_event ~now:t ~gate:ev.gate ~pin:ev.pin ~rising:ev.rising
                  ~tau_in:ev.tau_in
              end;
              if stats.Stats.events_processed >= event_cap cfg.Iddm.budget then begin
                truncated := true;
                continue := false
              end)
    done;
    { waveforms = wf; stats; end_time = !end_time; truncated = !truncated }
end

(* ------------------------------------------------------------------ *)
(* Reference Classic kernel                                           *)
(* ------------------------------------------------------------------ *)

(* The specification of classic's order for entries due at one instant:
   input switches first, in seeding order; then injection toggles, in
   list order; then signal transactions, by signal id.  The reference
   keeps its pending entries in one first-in first-out list and sorts
   the entries due at the earliest instant explicitly by that rule; it
   shares neither the engine's heap nor its integer ranks. *)
type tie = Input of int | Injection of int | Transaction of int

let tie_order a b =
  match (a, b) with
  | Input i, Input j | Injection i, Injection j | Transaction i, Transaction j -> Int.compare i j
  | Input _, (Injection _ | Transaction _) | Injection _, Transaction _ -> -1
  | (Injection _ | Transaction _), Input _ | Transaction _, Injection _ -> 1

module Ref_classic = struct
  type tx = { sid : int; at : float; value : bool; tie : tie }

  type result = {
    edges : Digital.edge list array;
    final_levels : bool array;
    stats : Stats.t;
    end_time : float;
    truncated : bool;
  }

  let run ?(injections = []) (cfg : Classic.config) c ~drives =
    let drives_tbl = Hashtbl.create 16 in
    List.iter (fun (sid, d) -> Hashtbl.replace drives_tbl sid d) drives;
    let input_level sid =
      match Hashtbl.find_opt drives_tbl sid with
      | Some (d : Drive.t) -> d.Drive.initial
      | None -> false
    in
    let levels = Ref_dc.levels c ~input_level in
    let nsignals = N.signal_count c in
    let value = Array.copy levels in
    let pending : tx list array = Array.make nsignals [] in
    (* every queued entry, oldest first *)
    let queue = ref [] in
    let rev_edges = Array.make nsignals [] in
    let loads = Halotis_delay.Loads.of_netlist cfg.Classic.tech c in
    let stats = Stats.create () in
    let enqueue ~tie ~sid ~at ~value =
      let tx = { sid; at; value; tie } in
      queue := !queue @ [ tx ];
      tx
    in
    let dequeue tx = queue := List.filter (fun x -> x != tx) !queue in
    (* the first entry due: the earliest instant, ties sorted by the rule *)
    let next () =
      let first a b = match Float.compare a.at b.at with 0 -> tie_order a.tie b.tie | c -> c in
      match List.stable_sort first !queue with [] -> None | tx :: _ -> Some tx
    in
    let scheduled_target sid =
      match List.rev pending.(sid) with [] -> value.(sid) | last :: _ -> last.value
    in
    (* remove the pending transactions of [sid] that [keep] rejects *)
    let cancel sid keep =
      let keep, kill = List.partition keep pending.(sid) in
      List.iter
        (fun tx ->
          dequeue tx;
          stats.Stats.events_filtered <- stats.Stats.events_filtered + 1)
        kill;
      pending.(sid) <- keep
    in
    let preempt sid ~at = cancel sid (fun tx -> tx.at < at) in
    let schedule_inertial sid ~at ~value:v ~window =
      preempt sid ~at;
      let keep = pending.(sid) in
      let target = scheduled_target sid in
      if target = v then stats.Stats.noop_evaluations <- stats.Stats.noop_evaluations + 1
      else begin
        let last = match List.rev keep with [] -> None | last :: _ -> Some last in
        match last with
        | Some tx when cfg.Classic.mode = Classic.Inertial && at -. tx.at < window ->
            dequeue tx;
            pending.(sid) <- List.filter (fun t -> t != tx) pending.(sid);
            stats.Stats.events_filtered <- stats.Stats.events_filtered + 2
        | Some _ | None ->
            let tx = enqueue ~tie:(Transaction sid) ~sid ~at ~value:v in
            pending.(sid) <- pending.(sid) @ [ tx ];
            stats.Stats.events_scheduled <- stats.Stats.events_scheduled + 1
      end
    in
    let evaluate_fanout ~now sid =
      List.iter
        (fun gid ->
          let g = N.gate c gid in
          let ins = Array.map (fun s -> value.(s)) g.N.fanin in
          let new_out = Gate_kind.eval_bool g.N.kind ins in
          let out_sid = g.N.output in
          if new_out <> scheduled_target out_sid then begin
            let rec find i = if g.N.fanin.(i) = sid then i else find (i + 1) in
            let resp =
              Ref_delay.for_gate cfg.Classic.tech c ~loads gid Delay_model.Cdm
                {
                  Ref_delay.rising_out = new_out;
                  pin = find 0;
                  tau_in = 0.;
                  t_event = now;
                  last_output_start = None;
                }
            in
            schedule_inertial out_sid ~at:(now +. resp.Ref_delay.tp) ~value:new_out
              ~window:resp.Ref_delay.tp
          end
          else stats.Stats.noop_evaluations <- stats.Stats.noop_evaluations + 1)
        (N.fanout_gates c sid)
    in
    let seeded = ref 0 in
    Hashtbl.iter
      (fun sid (d : Drive.t) ->
        List.iter
          (fun (tr : Transition.t) ->
            let at = tr.Transition.start +. (tr.Transition.slope_time /. 2.) in
            let v =
              match tr.Transition.polarity with
              | Transition.Rising -> true
              | Transition.Falling -> false
            in
            (* a drive ramp overrides the input's switches strictly
               later than its own *)
            cancel sid (fun tx -> tx.at <= at);
            let tx = enqueue ~tie:(Input !seeded) ~sid ~at ~value:v in
            incr seeded;
            pending.(sid) <- pending.(sid) @ [ tx ];
            stats.Stats.events_scheduled <- stats.Stats.events_scheduled + 1)
          d.Drive.transitions)
      drives_tbl;
    List.iteri
      (fun k (sid, at, v) -> ignore (enqueue ~tie:(Injection k) ~sid ~at ~value:v))
      (List.concat_map (fun (sid, toggles) -> List.map (fun (at, v) -> (sid, at, v)) toggles)
         injections);
    let end_time = ref 0. in
    let truncated = ref false in
    let continue = ref true in
    while !continue do
      match next () with
      | None -> continue := false
      | Some tx -> (
          match cfg.Classic.t_stop with
          | Some stop when tx.at > stop -> continue := false
          | Some _ | None ->
              let t = tx.at in
              dequeue tx;
              stats.Stats.events_processed <- stats.Stats.events_processed + 1;
              end_time := Float.max !end_time t;
              pending.(tx.sid) <- List.filter (fun x -> x != tx) pending.(tx.sid);
              if value.(tx.sid) <> tx.value then begin
                value.(tx.sid) <- tx.value;
                let polarity = if tx.value then Transition.Rising else Transition.Falling in
                rev_edges.(tx.sid) <- { Digital.at = t; polarity } :: rev_edges.(tx.sid);
                stats.Stats.transitions_emitted <- stats.Stats.transitions_emitted + 1;
                evaluate_fanout ~now:t tx.sid
              end;
              if stats.Stats.events_processed >= event_cap cfg.Classic.budget then begin
                truncated := true;
                continue := false
              end)
    done;
    {
      edges = Array.map List.rev rev_edges;
      final_levels = value;
      stats;
      end_time = !end_time;
      truncated = !truncated;
    }
end

(* ------------------------------------------------------------------ *)
(* Workload generation (deterministic per seed)                       *)
(* ------------------------------------------------------------------ *)

let random_workload ~ties ~gates ~seed =
  let c = G.random_combinational ~gates ~inputs:6 ~seed () in
  let rng = Prng.create ~seed:(seed * 7 + 1) in
  let drives =
    List.map
      (fun s ->
        let changes =
          List.init 6 (fun k ->
              let level = Prng.bool rng in
              let at =
                if ties then 300. *. float_of_int (1 + Prng.int rng ~bound:8)
                else (300. *. float_of_int (k + 1)) +. Prng.float rng ~bound:120.
              in
              (at, level))
        in
        let initial = Prng.bool rng in
        let slope = if ties then 40. else 20. +. Prng.float rng ~bound:40. in
        (s, Drive.of_levels ~slope ~initial changes))
      (N.primary_inputs c)
  in
  (c, drives)

let workload ~gates ~seed = random_workload ~ties:false ~gates ~seed

(* Every input switches on one coarse grid with one slope, so inputs
   switch together at shared instants, and an input may switch twice
   at one instant (a zero-width pulse). *)
let tie_workload ~gates ~seed = random_workload ~ties:true ~gates ~seed

let iddm_injections c ~seed =
  let rng = Prng.create ~seed:(seed * 31 + 5) in
  let nsignals = N.signal_count c in
  List.init 2 (fun _ ->
      let sid = Prng.int rng ~bound:nsignals in
      let at = 200. +. Prng.float rng ~bound:1500. in
      let width = 40. +. Prng.float rng ~bound:150. in
      let slope = 15. +. Prng.float rng ~bound:30. in
      {
        Iddm.inj_signal = sid;
        inj_ramps =
          [
            Transition.make ~start:at ~slope_time:slope ~polarity:Transition.Rising;
            Transition.make ~start:(at +. width) ~slope_time:slope
              ~polarity:Transition.Falling;
          ];
      })

(* [instants], when non-empty: toggles land on these instants (a
   run's edge instants), where they tie with the run's own pops. *)
let classic_injections ?(instants = [||]) c ~seed =
  let rng = Prng.create ~seed:(seed * 31 + 5) in
  let nsignals = N.signal_count c in
  List.init 2 (fun _ ->
      let sid = Prng.int rng ~bound:nsignals in
      let at = 200. +. Prng.float rng ~bound:1500. in
      let width = 40. +. Prng.float rng ~bound:150. in
      if instants = [||] then (sid, [ (at, true); (at +. width, false) ])
      else
        let pick () = instants.(Prng.int rng ~bound:(Array.length instants)) in
        let a = pick () and b = pick () in
        (sid, [ (Float.min a b, true); (Float.max a b, false) ]))

(* Every instant at which [edges] commit, ascending, without repeats. *)
let edge_instants (edges : Digital.edge list array) =
  Array.of_list
    (List.sort_uniq Float.compare
       (List.concat_map (List.map (fun (e : Digital.edge) -> e.Digital.at)) (Array.to_list edges)))

(* ------------------------------------------------------------------ *)
(* Comparators: exact equality, float-for-float                       *)
(* ------------------------------------------------------------------ *)

let check_stats_equal label (a : Stats.t) (b : Stats.t) =
  let field name fa fb = if fa <> fb then Alcotest.failf "%s: %s %d <> %d" label name fa fb in
  field "events_scheduled" a.Stats.events_scheduled b.Stats.events_scheduled;
  field "events_processed" a.Stats.events_processed b.Stats.events_processed;
  field "events_filtered" a.Stats.events_filtered b.Stats.events_filtered;
  field "transitions_emitted" a.Stats.transitions_emitted b.Stats.transitions_emitted;
  field "transitions_annulled" a.Stats.transitions_annulled b.Stats.transitions_annulled;
  field "noop_evaluations" a.Stats.noop_evaluations b.Stats.noop_evaluations

let check_waveforms_equal label (a : Waveform.t array) (b : Waveform.t array) =
  let show (tr : Transition.t) =
    Printf.sprintf "%s@%g(tau=%g)"
      (Transition.polarity_to_string tr.Transition.polarity)
      tr.Transition.start tr.Transition.slope_time
  in
  Array.iteri
    (fun sid wa ->
      let wb = b.(sid) in
      if Waveform.segment_count wa <> Waveform.segment_count wb then
        Alcotest.failf "%s: signal %d segment count %d <> %d" label sid
          (Waveform.segment_count wa) (Waveform.segment_count wb);
      for i = 0 to Waveform.segment_count wa - 1 do
        let sa = Waveform.get_segment wa i and sb = Waveform.get_segment wb i in
        let ta = sa.Waveform.transition and tb = sb.Waveform.transition in
        (* exact float equality: the optimized kernel must compute the
           very same expressions, not merely close ones *)
        if
          ta.Transition.start <> tb.Transition.start
          || ta.Transition.slope_time <> tb.Transition.slope_time
          || not (Transition.equal_polarity ta.Transition.polarity tb.Transition.polarity)
          || sa.Waveform.v_start <> sb.Waveform.v_start
        then
          Alcotest.failf "%s: signal %d segment %d differs (%s vs %s)" label sid i
            (show ta) (show tb)
      done)
    a

let check_edges_equal label (a : Digital.edge list array) (b : Digital.edge list array) =
  Array.iteri
    (fun sid ea ->
      let eb = b.(sid) in
      if List.length ea <> List.length eb then
        Alcotest.failf "%s: signal %d edge count %d <> %d" label sid (List.length ea)
          (List.length eb);
      List.iter2
        (fun (x : Digital.edge) (y : Digital.edge) ->
          if x.Digital.at <> y.Digital.at || not (Transition.equal_polarity x.polarity y.polarity)
          then Alcotest.failf "%s: signal %d edge differs" label sid)
        ea eb)
    a

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let iddm_case_gen =
  QCheck.make
    ~print:(fun (gates, seed, ddm, cancel, inject) ->
      Printf.sprintf "gates=%d seed=%d ddm=%b cancellation=%b injections=%b" gates seed ddm
        cancel inject)
    QCheck.Gen.(
      (fun gates seed ddm cancel inject -> (gates, seed, ddm, cancel, inject))
      <$> int_range 5 60 <*> int_range 0 10_000 <*> bool <*> bool <*> bool)

let prop_iddm_matches_reference =
  QCheck.Test.make ~name:"optimized Iddm == reference kernel (exact)" ~count:60 iddm_case_gen
    (fun (gates, seed, ddm, cancellation, inject) ->
      let c, drives = workload ~gates ~seed in
      let cfg =
        Iddm.config
          ~delay_kind:(if ddm then Delay_model.Ddm else Delay_model.Cdm)
          ~cancellation tech
      in
      let injections = if inject then iddm_injections c ~seed else [] in
      let opt = Iddm.advance (Iddm.start ~injections cfg c ~drives) ~upto:infinity in
      let reference = Ref_iddm.run ~injections cfg c ~drives in
      let label = Printf.sprintf "iddm gates=%d seed=%d" gates seed in
      check_stats_equal label opt.Iddm.stats reference.Ref_iddm.stats;
      check_waveforms_equal label opt.Iddm.waveforms reference.Ref_iddm.waveforms;
      if opt.Iddm.end_time <> reference.Ref_iddm.end_time then
        Alcotest.failf "%s: end_time %g <> %g" label opt.Iddm.end_time
          reference.Ref_iddm.end_time;
      if not (Halotis_guard.Stop.completed opt.Iddm.stopped_by) <> reference.Ref_iddm.truncated then
        Alcotest.failf "%s: truncated differs" label;
      (* drained queue: every tombstoned event must have been skipped *)
      if
        cancellation
        && opt.Iddm.stats.Stats.stale_skipped <> opt.Iddm.stats.Stats.events_filtered
      then
        Alcotest.failf "%s: stale_skipped %d <> events_filtered %d" label
          opt.Iddm.stats.Stats.stale_skipped opt.Iddm.stats.Stats.events_filtered;
      true)

(* [ties]: tie-rich inputs ({!tie_workload}).  [inject], drawn from
   [sources]: no injected toggles, toggles at random instants, or
   toggles on the clean run's edge instants, where simultaneous
   transactions are likeliest. *)
let classic_case_gen sources =
  QCheck.make
    ~print:(fun (gates, seed, inject, ties) ->
      Printf.sprintf "gates=%d seed=%d injections=%s ties=%b" gates seed
        (match inject with `None -> "none" | `Random -> "random" | `Edges -> "edges")
        ties)
    QCheck.Gen.(
      (fun gates seed inject ties -> (gates, seed, inject, ties))
      <$> int_range 5 60 <*> int_range 0 10_000
      <*> oneofl sources <*> bool)

let check_classic label (reference : Ref_classic.result) (opt : Classic.result) =
  check_stats_equal label opt.Classic.stats reference.Ref_classic.stats;
  check_edges_equal label (Lazy.force opt.Classic.edges) reference.Ref_classic.edges;
  if opt.Classic.final_levels <> reference.Ref_classic.final_levels then
    Alcotest.failf "%s: final levels differ" label;
  if opt.Classic.end_time <> reference.Ref_classic.end_time then
    Alcotest.failf "%s: end_time differs" label

(* The classic check.  Which of two inputs of one gate commits last
   prices the gate's delay, so where two transactions commit at one
   instant into one gate, the tie order decides the gate's edge time.
   The engine's must be the specification's ({!tie_order}): on random
   circuits, tie-rich stimuli and injections included, its output is
   the first-in first-out, tie-sorted reference's, byte for byte — also
   for two runs on one shared compiled circuit, neither of which may
   leave state behind for the other. *)
let classic_matches_reference (gates, seed, inject, ties) =
  let c, drives = random_workload ~ties ~gates ~seed in
  let cfg = Classic.config tech in
  let injections =
    match inject with
    | `None -> []
    | `Random -> classic_injections c ~seed
    | `Edges ->
        classic_injections c ~seed
          ~instants:(edge_instants (Ref_classic.run cfg c ~drives).Ref_classic.edges)
  in
  let reference = Ref_classic.run ~injections cfg c ~drives in
  let label = Printf.sprintf "classic gates=%d seed=%d ties=%b" gates seed ties in
  let run ?compiled () =
    Classic.advance (Classic.start ~injections ?compiled cfg c ~drives) ~upto:infinity
  in
  check_classic label reference (run ());
  let compiled = Compiled.compile tech c in
  check_classic (label ^ " shared 1") reference (run ~compiled ());
  check_classic (label ^ " shared 2") reference (run ~compiled ());
  true

let prop_classic_matches_reference =
  QCheck.Test.make ~name:"optimized Classic == reference kernel (exact)" ~count:60
    (classic_case_gen [ `None; `Random ])
    classic_matches_reference

let prop_classic_tie_order =
  QCheck.Test.make ~name:"Classic == first-in first-out reference on random circuits"
    ~count:60
    (classic_case_gen [ `None; `Edges ])
    classic_matches_reference

(* The random property's known tie-rich counterexamples from when the
   engine was checked against a plain first-in first-out order; each
   has two transactions commit at one instant into one gate. *)
let test_classic_tie_counterexamples () =
  List.iter
    (fun (gates, seed) ->
      List.iter
        (fun inject -> ignore (classic_matches_reference (gates, seed, inject, true)))
        [ `None; `Edges ])
    [ (7, 2005); (32, 8674); (34, 2097); (34, 8674); (20, 7330); (29, 4609); (16, 7554) ]

(* A gate reading one signal on several pins evaluates once per change
   of that signal, priced at its lowest such pin.  [x] reads [a] on
   both pins (a second evaluation would count a second no-op), and [m]
   reads it on pins 1 and 2 only (pin 0 would price a different
   delay). *)
let test_classic_repeated_pin () =
  let c =
    match
      Halotis_netlist.Hnl.parse_string
        "circuit dup\ninput a b\noutput o x m\ngate g nand2 o a a\ngate gx xor2 x a a\n\
         gate gm aoi21 m b a a\nend"
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "fixture: %s" e.Halotis_netlist.Hnl.message
  in
  let sid name = Option.get (N.find_signal c name) in
  let drives =
    [
      (sid "a", Drive.of_levels ~slope:40. ~initial:false [ (300., true); (900., false); (1500., true) ]);
      (sid "b", Drive.of_levels ~slope:40. ~initial:false [ (1200., true) ]);
    ]
  in
  let cfg = Classic.config tech in
  let opt = Classic.run cfg c ~drives in
  let reference = Ref_classic.run cfg c ~drives in
  check_edges_equal "repeated pin" (Lazy.force opt.Classic.edges) reference.Ref_classic.edges;
  check_stats_equal "repeated pin" opt.Classic.stats reference.Ref_classic.stats;
  Alcotest.(check int)
    "noop evaluations" reference.Ref_classic.stats.Stats.noop_evaluations
    opt.Classic.stats.Stats.noop_evaluations;
  Alcotest.(check bool) "o switched" true ((Lazy.force opt.Classic.edges).(sid "o") <> [])

let test_classic_foreign_compiled () =
  let c1, drives = workload ~gates:12 ~seed:3 in
  let c2, _ = workload ~gates:12 ~seed:4 in
  let foreign = Compiled.compile tech c2 in
  match Classic.start ~compiled:foreign (Classic.config tech) c1 ~drives with
  | _ -> Alcotest.fail "another netlist's compiled circuit was accepted"
  | exception Invalid_argument _ -> ()

(* The engines' heap against a sorted-list oracle: same pop order, and
   [top] names the entry [pop] removes.  Ranks are drawn as the engines draw them:
   small non-negative ranks (pin slots, signal ids) mixed with the
   negative injection ranks [min_int / 2 + idx] and classic
   input-switch ranks [min_int + idx].  Keys repeat often, and
   entries may repeat a (key, rank) pair — an engine can queue a
   tombstoned and a live entry for one pin or signal at one instant —
   so a pop must return {e some} entry whose (key, rank) is the
   oracle's minimum. *)
let prop_unboxed_heap_oracle =
  let rank_gen =
    QCheck.Gen.(
      oneof
        [
          int_range 0 7;
          map (fun idx -> (min_int / 2) + idx) (int_range 0 3);
          map (fun idx -> min_int + idx) (int_range 0 3);
        ])
  in
  let op_gen =
    QCheck.Gen.(list_size (int_range 1 400) (option (pair (int_range 0 20) rank_gen)))
    (* Some (k, r) = insert with key k/4. and ~rank:r; None = pop *)
  in
  let print ops =
    String.concat " "
      (List.map (function Some (k, r) -> Printf.sprintf "+%d/%d" k r | None -> "pop") ops)
  in
  QCheck.Test.make ~name:"Heap.Unboxed == sorted-list oracle" ~count:200
    (QCheck.make ~print op_gen) (fun ops ->
      let h = Heap.create () in
      let oracle = ref [] (* (key, rank, payload) *) in
      let seq = ref 0 in
      let order (ka, ra, _) (kb, rb, _) =
        match Float.compare ka kb with 0 -> Int.compare ra rb | c -> c
      in
      (* [v] is what the heap popped *)
      let check_pop v =
        match List.sort order !oracle with
        | [] -> Alcotest.failf "heap popped %d from an empty oracle" v
        | (ek, er, _) :: _ ->
            (match List.find_opt (fun (_, _, p) -> p = v) !oracle with
            | Some (pk, pr, _) when pk = ek && pr = er -> ()
            | Some (pk, pr, _) ->
                Alcotest.failf "popped (%g, %d), oracle minimum (%g, %d)" pk pr ek er
            | None -> Alcotest.failf "popped payload %d twice or never inserted" v);
            oracle := List.filter (fun (_, _, p) -> p <> v) !oracle
      in
      List.iter
        (fun op ->
          match op with
          | Some (k, rank) ->
              let key = float_of_int k /. 4. in
              Heap.insert h ~key ~rank !seq;
              oracle := (key, rank, !seq) :: !oracle;
              incr seq
          | None ->
              if !oracle = [] then begin
                if not (Heap.is_empty h) then Alcotest.failf "heap not empty when oracle is"
              end
              else begin
                let v = Heap.top h in
                if Heap.pop h <> v then Alcotest.failf "top %d is not what pop returned" v;
                check_pop v
              end)
        ops;
      (* drain what's left *)
      while not (Heap.is_empty h) do
        check_pop (Heap.pop h)
      done;
      !oracle = [] && Heap.is_empty h)

(* A random corner for [c]: every other gate on average gets random
   edge scales (one factor per parameter and edge) and pin scales, as a
   [vary] sample would put it. *)
let random_overlay c rng =
  let factor () = 0.7 +. Prng.float rng ~bound:0.6 in
  let scale () =
    {
      Param_overlay.sc_d0 = factor ();
      sc_d_load = factor ();
      sc_d_slope = factor ();
      sc_s0 = factor ();
      sc_s_load = factor ();
      sc_ddm_a = factor ();
      sc_ddm_b = factor ();
      sc_ddm_c = factor ();
    }
  in
  List.fold_left
    (fun t (gate, e) -> Param_overlay.set t ~gate e)
    Param_overlay.empty
    (List.filter_map
       (fun gid ->
         if Prng.bool rng then None
         else
           let npins = Array.length (N.gate c gid).N.fanin in
           Some
             ( gid,
               {
                 Param_overlay.en_rise = scale ();
                 en_fall = scale ();
                 en_vt = 1.;
                 en_pin = List.init npins (fun pin -> (pin, factor ()));
               } ))
       (List.init (N.gate_count c) Fun.id))

(* The coefficient cache against the uncached reference, including the
   scalar entry point the kernels call, at nominal and under random
   [Param_overlay] corners (the caches a [vary] campaign prices). *)
let prop_cache_matches_reference =
  let gen =
    QCheck.make
      ~print:(fun (gates, seed, scaled) ->
        Printf.sprintf "gates=%d seed=%d overlay=%b" gates seed scaled)
      QCheck.Gen.(
        (fun gates seed scaled -> (gates, seed, scaled))
        <$> int_range 3 40 <*> int_range 0 10_000 <*> bool)
  in
  QCheck.Test.make ~name:"Delay_model.Cache == uncached for_gate (exact)" ~count:60 gen
    (fun (gates, seed, scaled) ->
      let c = G.random_combinational ~gates ~inputs:4 ~seed () in
      let loads = Halotis_delay.Loads.of_netlist tech c in
      let overlay =
        if scaled then random_overlay c (Prng.create ~seed:(seed + 7)) else Param_overlay.empty
      in
      let cache = Delay_model.Cache.create ~overlay tech c ~loads in
      let rng = Prng.create ~seed:(seed + 99) in
      for gid = 0 to N.gate_count c - 1 do
        let g = N.gate c gid in
        for _ = 1 to 4 do
          let req =
            {
              Ref_delay.rising_out = Prng.bool rng;
              pin = Prng.int rng ~bound:(Array.length g.N.fanin);
              tau_in = Prng.float rng ~bound:200.;
              t_event = Prng.float rng ~bound:3000.;
              last_output_start =
                (if Prng.bool rng then None else Some (Prng.float rng ~bound:2000.));
            }
          in
          List.iter
            (fun kind ->
              let r = Ref_delay.for_gate ~overlay tech c ~loads gid kind req in
              let cached = Ref_delay.cached cache gid kind req in
              if
                r.Ref_delay.tp <> cached.Ref_delay.tp
                || r.Ref_delay.tau_out <> cached.Ref_delay.tau_out
                || r.Ref_delay.tp_nominal <> cached.Ref_delay.tp_nominal
                || r.Ref_delay.degraded <> cached.Ref_delay.degraded
              then Alcotest.failf "cached coefficients differ on gate %d" gid;
              Delay_model.Cache.eval cache gid kind ~rising_out:req.Ref_delay.rising_out
                ~pin:req.Ref_delay.pin ~tau_in:req.Ref_delay.tau_in
                ~t_event:req.Ref_delay.t_event
                ~last_output_start:
                  (match req.Ref_delay.last_output_start with
                  | Some t -> t
                  | None -> Float.nan);
              if
                Delay_model.Cache.tp cache <> r.Ref_delay.tp
                || Delay_model.Cache.tau_out cache <> r.Ref_delay.tau_out
              then Alcotest.failf "Cache.eval differs on gate %d" gid)
            [ Delay_model.Cdm; Delay_model.Ddm ]
        done
      done;
      true)

(* The DDM kernel's allocation per processed event, on a circuit shaped
   like the sim-rand benchmark's: 2000 random gates, 32 inputs each
   toggling 8 times.  This run processes 18,184 events.  Before the
   event path stopped boxing floats (a heap sift over its own slots, a
   scalar ramp append, crossing and eq. 2 evaluated inside the modules
   that own the arrays) it allocated 60.88 minor words per processed
   event, 38.90 after; the bound is two thirds of the former.  The
   count is [Gc.minor_words], not [Gc.counters]: under OCaml 5.1 the
   minor count of [Gc.counters] leaves out the words allocated since
   the last minor collection. *)
let test_iddm_words_per_event () =
  let c = G.random_combinational ~gates:2000 ~inputs:32 ~seed:4 () in
  let rng = Prng.create ~seed:5 in
  let drives =
    List.map
      (fun s ->
        let initial = Prng.bool rng in
        let changes =
          List.init 8 (fun k ->
              ((2500. *. float_of_int (k + 1)) +. Prng.float rng ~bound:400., Prng.bool rng))
        in
        (s, Drive.of_levels ~slope:100. ~initial changes))
      (N.primary_inputs c)
  in
  let compiled = Compiled.compile tech c in
  let cfg = Iddm.config tech in
  (* warm-up: the first run pays one-time costs of the process *)
  ignore (Iddm.run ~compiled cfg c ~drives);
  let w0 = Gc.minor_words () in
  let r = Iddm.run ~compiled cfg c ~drives in
  let words = Gc.minor_words () -. w0 in
  let per_event = words /. float_of_int r.Iddm.stats.Stats.events_processed in
  let bound = 60.88 *. 2. /. 3. in
  if per_event > bound then
    Alcotest.failf "DDM allocates %.2f minor words per processed event (bound %.2f)" per_event
      bound

(* ------------------------------------------------------------------ *)
(* DC operating point on the compiled circuit                         *)
(* ------------------------------------------------------------------ *)

(* A three-stage ring, enabled by [en]: it settles while [en] is low
   and oscillates (no DC point) while it is high. *)
let gated_ring () =
  match
    Halotis_netlist.Hnl.parse_string
      "circuit ring\ninput en\noutput z\n\
       gate g1 nand2 x en z\ngate g2 inv y x\ngate g3 inv z y\nend\n"
  with
  | Ok c -> c
  | Error e -> Alcotest.failf "ring did not parse: %s" e.Halotis_netlist.Hnl.message

let dc_circuit_gen =
  QCheck.Gen.(
    let* pick = int_bound 7 and* seed = int_range 1 10_000 in
    return
      (match pick with
      | 0 | 1 ->
          G.random_combinational ~gates:(20 + (seed mod 150)) ~inputs:(2 + (seed mod 9)) ~seed ()
      | 2 -> (G.sr_latch ()).G.latch_circuit
      | 3 -> (Fixtures.d_latch ()).Fixtures.dl_circuit
      | 4 -> (G.dff ()).G.dff_circuit
      | 5 -> (G.ripple_counter ~bits:(1 + (seed mod 4)) ()).G.ctr_circuit
      | 6 -> (Fixtures.lfsr ~bits:(3 + (seed mod 3)) ~taps:[ 0; 2 ] ()).Fixtures.lfsr_circuit
      | _ -> gated_ring ()))

(* [Dc.levels] settles in the compiled topological order, reading pins
   through the CSR slots; the oracle ({!Ref_dc}) walks
   [Check.topological_gates] over the netlist records.  Both must give
   every signal the same level for random input levels, on acyclic
   circuits and on the feedback generators (Gauss-Seidel), and both
   must reject the same oscillating cases. *)
let prop_dc_matches_oracle =
  QCheck.Test.make ~name:"Dc.levels on the compiled circuit == Check-order oracle" ~count:200
    (QCheck.make
       QCheck.Gen.(pair dc_circuit_gen (int_range 0 1_000_000)))
    (fun (c, lseed) ->
      let rng = Prng.create ~seed:lseed in
      let inputs = Array.make (N.signal_count c) false in
      List.iter (fun sid -> inputs.(sid) <- Prng.bool rng) (N.primary_inputs c);
      let input_level sid = inputs.(sid) in
      let attempt f = try Ok (f ()) with Invalid_argument m -> Error m in
      let cp = Compiled.compile tech c in
      attempt (fun () -> Dc.levels cp ~input_level)
      = attempt (fun () -> Ref_dc.levels c ~input_level))

(* The compiled order lists every gate once, each after the gates that
   drive its pins, exactly when the netlist is acyclic. *)
let prop_topo_order =
  QCheck.Test.make ~name:"Compiled.topo_order: drivers first, None iff feedback" ~count:100
    (QCheck.make dc_circuit_gen)
    (fun c ->
      let cp = Compiled.compile tech c in
      match (cp.Compiled.topo_order, Halotis_netlist.Check.topological_gates c) with
      | None, None -> true
      | Some order, Some _ ->
          let rank = Array.make cp.Compiled.ngates (-1) in
          Array.iteri (fun k g -> rank.(g) <- k) order;
          Array.length order = cp.Compiled.ngates
          && Array.for_all (fun r -> r >= 0) rank
          && Array.for_all
               (fun g ->
                 Array.for_all
                   (fun sid ->
                     match (N.signal c sid).N.driver with
                     | Some d -> rank.(d) < rank.(g)
                     | None -> true)
                   (N.gate c g).N.fanin)
               order
      | _ -> false)

(* Starting a DDM session on a compiled circuit, as a serve load does:
   a seeded 170-gate random circuit with constant drives at random
   levels on its 8 inputs.  When DC settled through a netlist Kahn walk
   (lists and a [Queue]) and a fresh input array per gate, a start
   allocated 13,680 minor words; on the compiled order and pin slots it
   allocates 4,512.  The bound is 0.6 of the former. *)
let test_session_start_words () =
  let c = G.random_combinational ~gates:170 ~inputs:8 ~seed:7 () in
  let rng = Prng.create ~seed:8 in
  let drives = List.map (fun s -> (s, Drive.constant (Prng.bool rng))) (N.primary_inputs c) in
  let compiled = Compiled.compile tech c in
  let cfg = Iddm.config tech in
  ignore (Iddm.start ~compiled cfg c ~drives);
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Iddm.start ~compiled cfg c ~drives));
  let words = Gc.minor_words () -. w0 in
  let bound = 13_680. *. 0.6 in
  if words > bound then
    Alcotest.failf "starting a DDM session allocates %.0f minor words (bound %.0f)" words bound

(* Reading a netlist, as a serve load miss does: a seeded 115-gate
   random circuit (the serve-mix mean) printed as HNL.  When every token
   was copied with [String.sub], names went through a string hash table
   and gate lines through lists, the parse allocated 5.50 minor words
   per source byte here (5.6 on the twelve serve-mix texts); interning
   names from slices of the source brings it to 2.14.  The bound is
   half the former. *)
let test_hnl_parse_words () =
  let text =
    Halotis_netlist.Hnl.to_string (G.random_combinational ~gates:115 ~inputs:8 ~seed:7 ())
  in
  let parse () =
    match Halotis_netlist.Hnl.parse_string text with
    | Ok c -> c
    | Error e -> Alcotest.failf "parse: %s" (Halotis_util.Diag.to_string e)
  in
  ignore (parse ());
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (parse ()));
  let per_byte = (Gc.minor_words () -. w0) /. float_of_int (String.length text) in
  let bound = 5.50 /. 2. in
  if per_byte > bound then
    Alcotest.failf "Hnl.parse_string allocates %.2f minor words per source byte (bound %.2f)"
      per_byte bound

let tests =
  [
    ( "perf.equiv",
      [
        QCheck_alcotest.to_alcotest prop_iddm_matches_reference;
        QCheck_alcotest.to_alcotest prop_classic_matches_reference;
        Alcotest.test_case "Classic: one evaluation per distinct gate, first pin" `Quick
          test_classic_repeated_pin;
        Alcotest.test_case "Classic.start rejects a foreign compiled circuit" `Quick
          test_classic_foreign_compiled;
        QCheck_alcotest.to_alcotest prop_classic_tie_order;
        Alcotest.test_case "classic tie counterexamples" `Quick test_classic_tie_counterexamples;
        QCheck_alcotest.to_alcotest prop_unboxed_heap_oracle;
        QCheck_alcotest.to_alcotest prop_cache_matches_reference;
        Alcotest.test_case "Iddm.run minor words per processed event" `Quick
          test_iddm_words_per_event;
        QCheck_alcotest.to_alcotest prop_dc_matches_oracle;
        QCheck_alcotest.to_alcotest prop_topo_order;
        Alcotest.test_case "Iddm.start minor words on a 170-gate circuit" `Quick
          test_session_start_words;
        Alcotest.test_case "Hnl.parse_string minor words per source byte" `Quick
          test_hnl_parse_words;
      ] );
  ]
