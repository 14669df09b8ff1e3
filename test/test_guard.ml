(* Guardrail layer tests: resource budgets, the oscillation watchdog,
   structured diagnostics, and campaign checkpoint/resume.

   The star fixture is a 3-gate enable-gated ring (examples/data/ring):
   no DC fixed point once [en] rises, so the classic and CDM engines
   spin until something stops them.  Under a degradation-dominant
   technology the IDDM engine quenches the circulating pulse per eq. 1
   — the same netlist that trips the watchdog under CDM quiesces
   naturally under DDM. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Hnl = Halotis_netlist.Hnl
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Stats = Halotis_engine.Stats
module Drive = Halotis_engine.Drive
module Waveform = Halotis_wave.Waveform
module Transition = Halotis_wave.Transition
module Delay_model = Halotis_delay.Delay_model
module Tech = Halotis_tech.Tech
module DL = Halotis_tech.Default_lib
module Prng = Halotis_util.Prng
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Watchdog = Halotis_guard.Watchdog
module Diag = Halotis_guard.Diag
module Campaign = Halotis_fault.Campaign
module Journal = Halotis_fault.Journal
module Supervisor = Halotis_fault.Supervisor
module Fault_report = Halotis_fault.Fault_report
module Lint = Halotis_lint.Lint
module Finding = Halotis_lint.Finding

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let sid c n =
  match N.find_signal c n with
  | Some s -> s
  | None -> Alcotest.failf "no signal %s" n

let parse src =
  match Hnl.parse_string src with
  | Ok c -> c
  | Error _ -> Alcotest.fail "fixture netlist failed to parse"

(* ------------------------------------------------------------------ *)
(* Fixtures                                                           *)
(* ------------------------------------------------------------------ *)

let ring =
  lazy
    (parse
       "circuit ring\n\
        input en\n\
        output c\n\
        gate g_en nand2 a en c\n\
        gate g1 inv b a\n\
        gate g2 inv c b\n\
        end\n")

let ring_drives c =
  [ (sid c "en", Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ]

(* NAND latch: a feedback loop with even inversion parity — it has DC
   fixed points and must upset neither the watchdog nor NL008. *)
let latch =
  lazy
    (parse
       "circuit latch\n\
        input s r\n\
        output q qb\n\
        gate g1 nand2 q s qb\n\
        gate g2 nand2 qb r q\n\
        end\n")

(* A non-inverting feedback loop (or2 + two inverters) holding a lone
   circulating pulse: the paper's degradation showcase.  Each lap the
   trailing edge rides a short inter-event time [T] and eq. 1 shaves
   its delay, so the pulse narrows until it is annulled — DDM goes
   quiet on its own.  CDM gives both edges the full [tp0] every lap,
   the pulse circulates essentially forever, and only the watchdog can
   end the spin. *)
let pulse_loop =
  lazy
    (parse
       "circuit pulse_loop\n\
        input trig\n\
        output q\n\
        gate g1 or2 a trig q\n\
        gate g2 inv b a\n\
        gate g3 inv q b\n\
        end\n")

let pulse_loop_drives c =
  [
    ( sid c "trig",
      Drive.of_levels ~slope:20. ~initial:false [ (1_000., true); (1_500., false) ] );
  ]

(* ------------------------------------------------------------------ *)
(* Budget monitor unit tests                                          *)
(* ------------------------------------------------------------------ *)

let test_monitor_exact_events () =
  (* interval smaller than the budget: refill logic must stay exact *)
  let m = Budget.Monitor.create ~interval:4 (Budget.make ~max_events:10 ()) in
  for i = 1 to 10 do
    checkb (Printf.sprintf "event %d allowed" i) true
      (Budget.Monitor.hit m ~queue:0 = None)
  done;
  checki "events seen at the limit" 10 (Budget.Monitor.events_seen m);
  match Budget.Monitor.hit m ~queue:0 with
  | Some (Stop.Event_budget 10) -> ()
  | _ -> Alcotest.fail "11th event must trip the event budget"

let test_monitor_queue_cap () =
  let m = Budget.Monitor.create ~interval:2 (Budget.make ~max_queue:5 ()) in
  let rec spin n =
    if n = 0 then Alcotest.fail "queue cap never tripped"
    else
      match Budget.Monitor.hit m ~queue:10 with
      | Some (Stop.Queue_cap 5) -> ()
      | Some s -> Alcotest.failf "unexpected stop %s" (Stop.to_string s)
      | None -> spin (n - 1)
  in
  spin 50

let test_monitor_unlimited () =
  let m = Budget.Monitor.create ~interval:8 Budget.unlimited in
  for _ = 1 to 1000 do
    checkb "unlimited never trips" true (Budget.Monitor.hit m ~queue:1_000_000 = None)
  done

(* ------------------------------------------------------------------ *)
(* Stop / Diag rendering                                              *)
(* ------------------------------------------------------------------ *)

let test_stop_render () =
  checks "completed" "completed" (Stop.to_string Stop.Completed);
  checks "event budget" "event-budget(42)" (Stop.to_string (Stop.Event_budget 42));
  checks "oscillation" "oscillation(a,b,c)"
    (Stop.to_string (Stop.Oscillation [ "a"; "b"; "c" ]));
  checki "exit completed" 0 (Stop.exit_code Stop.Completed);
  checki "exit budget" 3 (Stop.exit_code (Stop.Event_budget 42));
  checki "exit sim-time" 3 (Stop.exit_code (Stop.Sim_time 1e4));
  checki "exit queue" 3 (Stop.exit_code (Stop.Queue_cap 9));
  checki "exit wall" 3 (Stop.exit_code (Stop.Wall_clock 1.5));
  checki "exit oscillation" 4 (Stop.exit_code (Stop.Oscillation [ "x" ]));
  checkb "completed predicate" true (Stop.completed Stop.Completed);
  checkb "budget not completed" false (Stop.completed (Stop.Event_budget 1))

let test_diag_render () =
  let d =
    Diag.make ~code:"netlist-parse" ~file:"c17.hnl" ~line:12
      ~hint:"see doc/FORMATS.md" "unknown gate kind 'nand9'"
  in
  checks "to_string"
    "error[netlist-parse]: c17.hnl:12: unknown gate kind 'nand9'\n\
    \  hint: see doc/FORMATS.md" (Diag.to_string d);
  let bare = Diag.make ~code:"io" "no such file" in
  checks "bare to_string" "error[io]: no such file" (Diag.to_string bare)

(* ------------------------------------------------------------------ *)
(* Engine-level budget stops                                          *)
(* ------------------------------------------------------------------ *)

(* The ring under classic/CDM with t_stop 100 ns processes ~900 / ~510
   events; budgets well below that must trip. *)

let test_iddm_event_budget_exact () =
  let c = Lazy.force ring in
  let cfg =
    Iddm.config ~delay_kind:Delay_model.Cdm ~t_stop:100_000.
      ~budget:(Budget.make ~max_events:50 ())
      DL.tech
  in
  let r = Iddm.run cfg c ~drives:(ring_drives c) in
  checkb "truncated" true r.Iddm.truncated;
  (match r.Iddm.stopped_by with
  | Stop.Event_budget 50 -> ()
  | s -> Alcotest.failf "expected event-budget(50), got %s" (Stop.to_string s));
  checki "exactly 50 events processed" 50 r.Iddm.stats.Stats.events_processed;
  checkb "stats record the stop" true
    (r.Iddm.stats.Stats.stopped_by = Stop.Event_budget 50)

let test_iddm_sim_time_budget () =
  let c = Lazy.force ring in
  let cfg =
    Iddm.config ~delay_kind:Delay_model.Cdm ~t_stop:100_000.
      ~budget:(Budget.make ~max_sim_time:5_000. ())
      DL.tech
  in
  let r = Iddm.run cfg c ~drives:(ring_drives c) in
  checkb "truncated" true r.Iddm.truncated;
  (match r.Iddm.stopped_by with
  | Stop.Sim_time 5_000. -> ()
  | s -> Alcotest.failf "expected sim-time(5000), got %s" (Stop.to_string s));
  checkb "end time within budget" true (r.Iddm.end_time <= 5_000.)

let test_classic_event_budget () =
  let c = Lazy.force ring in
  let cfg =
    Classic.config ~t_stop:100_000. ~budget:(Budget.make ~max_events:200 ()) DL.tech
  in
  let r = Classic.run cfg c ~drives:(ring_drives c) in
  checkb "truncated" true r.Classic.truncated;
  (match r.Classic.stopped_by with
  | Stop.Event_budget 200 -> ()
  | s -> Alcotest.failf "expected event-budget(200), got %s" (Stop.to_string s));
  checki "exactly 200 events" 200 r.Classic.stats.Stats.events_processed

(* The budget-limited run must be a prefix of the unlimited one: same
   transitions below the stop time, never anything new. *)
let prop_budget_prefix =
  QCheck.Test.make ~count:20 ~name:"budget-limited IDDM run is a prefix"
    QCheck.(pair (int_range 1 400) (int_range 0 6))
    (fun (k, seed) ->
      let c, drives = Test_perf_equiv.workload ~gates:25 ~seed in
      let full = Iddm.run (Iddm.config ~t_stop:4_000. DL.tech) c ~drives in
      let limited =
        Iddm.run
          (Iddm.config ~t_stop:4_000. ~budget:(Budget.make ~max_events:k ()) DL.tech)
          c ~drives
      in
      if limited.Iddm.truncated then begin
        if limited.Iddm.stats.Stats.events_processed <> k then
          QCheck.Test.fail_reportf "processed %d events under a budget of %d"
            limited.Iddm.stats.Stats.events_processed k;
        if limited.Iddm.end_time > full.Iddm.end_time then
          QCheck.Test.fail_reportf "limited run ran past the full run";
        let cut = limited.Iddm.end_time in
        Array.iteri
          (fun i w ->
            let upto lst =
              List.filter (fun tr -> tr.Transition.start < cut) lst
            in
            let want = upto (Waveform.transitions full.Iddm.waveforms.(i)) in
            let got = upto (Waveform.transitions w) in
            if want <> got then
              QCheck.Test.fail_reportf
                "signal %d diverges below the stop time (budget %d)" i k)
          limited.Iddm.waveforms;
        true
      end
      else begin
        (* budget never tripped: the runs must be identical *)
        if limited.Iddm.stopped_by <> Stop.Completed then
          QCheck.Test.fail_reportf "untruncated run has a stop reason";
        Array.iteri
          (fun i w ->
            if
              Waveform.transitions w
              <> Waveform.transitions full.Iddm.waveforms.(i)
            then QCheck.Test.fail_reportf "signal %d differs without a trip" i)
          limited.Iddm.waveforms;
        true
      end)

(* ------------------------------------------------------------------ *)
(* Oscillation watchdog                                               *)
(* ------------------------------------------------------------------ *)

let wd_trip = Watchdog.config ~window:10_000. ~threshold:10 ()

let test_watchdog_trips_cdm () =
  let c = Lazy.force ring in
  let cfg =
    Iddm.config ~delay_kind:Delay_model.Cdm ~t_stop:100_000. ~watchdog:wd_trip
      DL.tech
  in
  let r = Iddm.run cfg c ~drives:(ring_drives c) in
  checkb "truncated" true r.Iddm.truncated;
  match r.Iddm.stopped_by with
  | Stop.Oscillation names ->
      (* the whole feedback SCC is named, not just the hot signal *)
      checkb "names the ring loop" true
        (List.mem "a" names && List.mem "b" names && List.mem "c" names)
  | s -> Alcotest.failf "expected oscillation halt, got %s" (Stop.to_string s)

let test_watchdog_trips_classic () =
  let c = Lazy.force ring in
  let cfg = Classic.config ~t_stop:100_000. ~watchdog:wd_trip DL.tech in
  let r = Classic.run cfg c ~drives:(ring_drives c) in
  checkb "truncated" true r.Classic.truncated;
  match r.Classic.stopped_by with
  | Stop.Oscillation names ->
      checkb "names the ring loop" true
        (List.mem "a" names && List.mem "b" names && List.mem "c" names)
  | s -> Alcotest.failf "expected oscillation halt, got %s" (Stop.to_string s)

(* The headline claim: the identical netlist, drives and watchdog that
   halt CDM complete naturally under DDM — the circulating pulse loses
   width each lap (eq. 1) until it is annulled and the loop goes quiet
   on its own. *)
let test_watchdog_ddm_quiesces () =
  let c = Lazy.force pulse_loop in
  let drives = pulse_loop_drives c in
  let ddm =
    Iddm.run
      (Iddm.config ~delay_kind:Delay_model.Ddm ~t_stop:100_000. ~watchdog:wd_trip
         DL.tech)
      c ~drives
  in
  checkb "DDM quiesces without tripping" true
    (ddm.Iddm.stopped_by = Stop.Completed);
  checkb "not truncated" false ddm.Iddm.truncated;
  let cdm =
    Iddm.run
      (Iddm.config ~delay_kind:Delay_model.Cdm ~t_stop:100_000. ~watchdog:wd_trip
         DL.tech)
      c ~drives
  in
  (match cdm.Iddm.stopped_by with
  | Stop.Oscillation names ->
      checkb "names the feedback loop" true
        (List.mem "a" names && List.mem "b" names && List.mem "q" names)
  | s ->
      Alcotest.failf "CDM on the same netlist should trip, got %s"
        (Stop.to_string s));
  (* degradation killed the pulse within a lap or two; CDM was still
     circulating it when halted *)
  let edges r = List.length (Waveform.transitions (Iddm.waveform r "q")) in
  checkb "degradation quenched the pulse" true (edges ddm < edges cdm)

let test_watchdog_degrade_mode () =
  let c = Lazy.force ring in
  let wd = Watchdog.config ~window:10_000. ~threshold:10 ~mode:Watchdog.Degrade () in
  let cfg =
    Iddm.config ~delay_kind:Delay_model.Cdm ~t_stop:100_000. ~watchdog:wd DL.tech
  in
  let r = Iddm.run cfg c ~drives:(ring_drives c) in
  (* degrade mode sacrifices the loop, not the run *)
  checkb "run completes" true (r.Iddm.stopped_by = Stop.Completed);
  checkb "not truncated" false r.Iddm.truncated;
  checki "the whole SCC is frozen" 3 (List.length r.Iddm.frozen);
  let frozen_at = List.assoc (sid c "c") r.Iddm.frozen in
  (* no transitions on the frozen signal after the freeze instant *)
  let late =
    List.filter
      (fun tr -> tr.Transition.start > frozen_at)
      (Waveform.transitions (Iddm.waveform r "c"))
  in
  checki "no activity after the freeze" 0 (List.length late)

let test_watchdog_ignores_latch () =
  let c = Lazy.force latch in
  let drives =
    [
      (sid c "s", Drive.of_levels ~slope:50. ~initial:true [ (1_000., false); (2_000., true) ]);
      (sid c "r", Drive.of_levels ~slope:50. ~initial:true [ (4_000., false); (5_000., true) ]);
    ]
  in
  let cfg =
    Iddm.config ~delay_kind:Delay_model.Cdm ~t_stop:100_000. ~watchdog:wd_trip DL.tech
  in
  let r = Iddm.run cfg c ~drives in
  checkb "a settling latch never trips the watchdog" true
    (r.Iddm.stopped_by = Stop.Completed)

(* ------------------------------------------------------------------ *)
(* NL008 oscillation-risk lint                                        *)
(* ------------------------------------------------------------------ *)

let nl008_of c =
  List.filter (fun f -> f.Finding.rule = "NL008") (Lint.run c)

let test_nl008_flags_ring () =
  let fs = nl008_of (Lazy.force ring) in
  checki "ring is flagged once" 1 (List.length fs);
  let f = List.hd fs in
  checkb "mentions the watchdog escape hatch" true
    (let m = f.Finding.message in
     let has needle =
       let nl = String.length needle and ml = String.length m in
       let rec go i = i + nl <= ml && (String.sub m i nl = needle || go (i + 1)) in
       go 0
     in
     has "--max-events" && has "watchdog")

let test_nl008_spares_latch () =
  checki "even-parity latch is not flagged" 0
    (List.length (nl008_of (Lazy.force latch)))

let test_nl008_flags_ambiguous () =
  (* an XOR in the loop makes parity data-dependent: flag it *)
  let c =
    parse
      "circuit xring\n\
       input en\n\
       output q\n\
       gate g1 xor2 q en fb\n\
       gate g2 buf fb q\n\
       end\n"
  in
  checki "data-dependent loop is flagged" 1 (List.length (nl008_of c))

(* ------------------------------------------------------------------ *)
(* Journal + campaign resume                                          *)
(* ------------------------------------------------------------------ *)

let campaign_fixture =
  lazy
    (let c, drives = Test_perf_equiv.workload ~gates:20 ~seed:11 in
     let cfg = Campaign.config ~seed:3 ~n:12 ~t_stop:4_000. () in
     (c, drives, cfg))

let with_temp_journal f =
  let path = Filename.temp_file "halotis_guard_test" ".journal" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let test_resume_byte_identical () =
  let c, drives, cfg = Lazy.force campaign_fixture in
  let straight = Campaign.run cfg DL.tech c ~drives in
  checkb "fixture runs to completion" true straight.Campaign.cam_complete;
  let want_json = Fault_report.to_string straight in
  let want_text = Fault_report.to_text straight in
  with_temp_journal (fun path ->
      (* phase 1: run 5 sites, journaling, then "crash" with a torn tail *)
      let w = Journal.open_new ~sync_every:2 path (Journal.header_of ~circuit:(N.name c) cfg) in
      let part =
        Campaign.run
          ~on_verdict:(fun i v -> Journal.write w i v)
          { cfg with Campaign.limit = Some 5 }
          DL.tech c ~drives
      in
      Journal.close w;
      checkb "parked after the site limit" false part.Campaign.cam_complete;
      checki "five verdicts decided" 5 (List.length part.Campaign.cam_verdicts);
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "v 5 17 3 R 0x1.8p+";
      close_out oc;
      (* phase 2: load survives the torn record, resume finishes the rest *)
      let h, indexed = Journal.load path in
      Journal.check h ~circuit:(N.name c) cfg;
      let completed, _ = Journal.partition ~first:0 (Journal.contiguous ~first:0 indexed) in
      checki "torn tail dropped, five verdicts recovered" 5 (List.length completed);
      let w2 = Journal.open_append path in
      let resumed =
        Campaign.run
          ~on_verdict:(fun i v -> Journal.write w2 i v)
          { cfg with Campaign.completed }
          DL.tech c ~drives
      in
      Journal.close w2;
      checkb "resumed campaign completes" true resumed.Campaign.cam_complete;
      checks "JSON report byte-identical" want_json (Fault_report.to_string resumed);
      checks "text report byte-identical" want_text (Fault_report.to_text resumed);
      (* the finished journal now replays to a full verdict list *)
      let _, all_indexed = Journal.load path in
      let all, _ = Journal.partition ~first:0 (Journal.contiguous ~first:0 all_indexed) in
      checki "journal holds every verdict" 12 (List.length all);
      let replay =
        Campaign.run { cfg with Campaign.completed = all } DL.tech c ~drives
      in
      checks "replayed-from-journal report byte-identical" want_json
        (Fault_report.to_string replay))

let test_journal_mismatch_rejected () =
  let c, _, cfg = Lazy.force campaign_fixture in
  with_temp_journal (fun path ->
      let w = Journal.open_new path (Journal.header_of ~circuit:(N.name c) cfg) in
      Journal.close w;
      let h, _ = Journal.load path in
      let other = Campaign.config ~seed:99 ~n:12 ~t_stop:4_000. () in
      match Journal.check h ~circuit:(N.name c) other with
      | () -> Alcotest.fail "seed mismatch must be rejected"
      | exception Diag.Fail d -> checks "diag code" "journal-mismatch" d.Diag.code)

(* ------------------------------------------------------------------ *)
(* Shard journals: merge semantics                                     *)
(* ------------------------------------------------------------------ *)

(* One serial campaign, journaled once; every property case below
   reassembles shard journals out of its bytes. *)
let serial_journal_fixture =
  lazy
    (let c, drives, cfg = Lazy.force campaign_fixture in
     let path = Filename.temp_file "halotis_shard_serial" ".journal" in
     let w = Journal.open_new path (Journal.header_of ~circuit:(N.name c) cfg) in
     let cam = Campaign.run ~on_verdict:(fun i v -> Journal.write w i v) cfg DL.tech c ~drives in
     Journal.close w;
     assert cam.Campaign.cam_complete;
     let header, indexed = Journal.load path in
     let ic = open_in_bin path in
     let text = really_input_string ic (in_channel_length ic) in
     close_in ic;
     Sys.remove path;
     let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
     match lines with
     | magic :: circuit :: params :: verdict_lines ->
         assert (List.length verdict_lines = List.length indexed);
         ((magic, circuit, params), verdict_lines, header, indexed)
     | _ -> assert false)

let sublist lo hi l = List.filteri (fun i _ -> lo <= i && i < hi) l

(* Chunk journals with arbitrary overlaps and torn tails: merging them
   must reproduce the serial journal whenever their (post-tear) ranges
   cover every site, and [contiguous] must name the gap whenever they
   don't.  The ranges are the supervisor's fresh plan for [jobs]
   roughly equal chunks. *)
let prop_shard_merge_equals_serial =
  let gen =
    QCheck.Gen.(
      2 -- 4 >>= fun jobs ->
      list_repeat 4 (0 -- 2) >>= fun exts ->
      list_repeat 4 bool >>= fun tears -> return (jobs, exts, tears))
  in
  let print (jobs, exts, tears) =
    Printf.sprintf "jobs=%d exts=[%s] tears=[%s]" jobs
      (String.concat ";" (List.map string_of_int exts))
      (String.concat ";" (List.map string_of_bool tears))
  in
  QCheck.Test.make ~count:60
    ~name:"journal merge of overlapping/torn shards equals the serial journal"
    (QCheck.make ~print gen)
    (fun (jobs, exts, tears) ->
      let (magic, circuit, params), verdict_lines, serial_header, serial_indexed =
        Lazy.force serial_journal_fixture
      in
      let total = List.length verdict_lines in
      let covered = Array.make total false in
      let files =
        List.map
          (fun ((lo, hi), (ext, tear)) ->
            let hi = min total (hi + ext) in
            let body = sublist lo hi verdict_lines in
            let tear = tear && body <> [] in
            let cov_hi = if tear then hi - 1 else hi in
            for i = lo to cov_hi - 1 do
              covered.(i) <- true
            done;
            let body =
              if not tear then List.map (fun l -> l ^ "\n") body
              else
                let rec cut = function
                  | [] -> assert false
                  | [ last ] -> [ String.sub last 0 (String.length last / 2) ]
                  | l :: rest -> (l ^ "\n") :: cut rest
                in
                cut body
            in
            let path = Filename.temp_file "halotis_shard_part" ".journal" in
            let oc = open_out_bin path in
            output_string oc (magic ^ "\n" ^ circuit ^ "\n" ^ params ^ "\n");
            output_string oc (Printf.sprintf "! range %d %d\n" lo hi);
            List.iter (output_string oc) body;
            close_out oc;
            path)
          (List.mapi
             (fun i range -> (range, (List.nth exts i, List.nth tears i)))
             (Supervisor.plan_chunks ~total ~chunk_sites:((total + jobs - 1) / jobs)))
      in
      Fun.protect
        ~finally:(fun () -> List.iter Sys.remove files)
        (fun () ->
          let merged_header, merged = Journal.merge (List.map Journal.load files) in
          let covered_ix =
            List.filter (fun i -> covered.(i)) (List.init total Fun.id)
          in
          (* the merged stream holds exactly the covered sites, with the
             serial journal's verdict for each *)
          merged_header = serial_header
          && List.map fst merged = covered_ix
          && List.for_all
               (fun (i, v) -> List.assoc i serial_indexed = v)
               merged
          &&
          (* a missing suffix is a resumable prefix; an interior gap is
             a merge error naming it *)
          let prefix_len = List.length covered_ix in
          let is_prefix = List.for_all2 ( = ) covered_ix (List.init prefix_len Fun.id) in
          match Journal.contiguous ~first:0 merged with
          | vs -> is_prefix && List.length vs = prefix_len
          | exception Diag.Fail d -> (not is_prefix) && d.Diag.code = "journal-merge"))

(* The supervisor's fresh chunk plan partitions the site list: for
   every campaign size and chunk size the chunks are contiguous and
   non-empty, cover [0, total) exactly, and all hold [chunk_sites]
   sites except possibly a shorter last one. *)
let prop_shard_ranges_partition =
  QCheck.Test.make ~count:200 ~name:"shard ranges partition the site indices"
    QCheck.(pair (int_range 0 500) (int_range 1 60))
    (fun (total, chunk_sites) ->
      let rs = Supervisor.plan_chunks ~total ~chunk_sites in
      let sizes = List.map (fun (lo, hi) -> hi - lo) rs in
      let n = List.length rs in
      List.fold_left
        (fun next (lo, hi) -> if next = lo then hi else -1)
        0 rs
      = total
      && List.for_all (fun s -> 0 < s && s <= chunk_sites) sizes
      && List.for_all (fun s -> s = chunk_sites) (sublist 0 (n - 1) sizes)
      && n = (total + chunk_sites - 1) / chunk_sites)

(* Library-level chunking: running each chunk range separately and
   handing the concatenated verdicts back as [completed] reproduces the
   serial report byte for byte. *)
let test_range_runs_merge_byte_identical () =
  let c, drives, cfg = Lazy.force campaign_fixture in
  let serial = Campaign.run cfg DL.tech c ~drives in
  let verdicts =
    List.concat_map
      (fun range ->
        (Campaign.run { cfg with Campaign.range = Some range } DL.tech c ~drives)
          .Campaign.cam_verdicts)
      (let total = serial.Campaign.cam_sites_total in
       Supervisor.plan_chunks ~total ~chunk_sites:(max 1 ((total + 2) / 3)))
  in
  let merged =
    Campaign.run { cfg with Campaign.completed = verdicts } DL.tech c ~drives
  in
  checks "sharded report byte-identical" (Fault_report.to_string serial)
    (Fault_report.to_string merged)

let test_worst_exit_code () =
  checki "no workers" 0 (Stop.worst_exit_code []);
  checki "all clean" 0 (Stop.worst_exit_code [ 0; 0 ]);
  checki "budget beats clean" 3 (Stop.worst_exit_code [ 0; 3; 0 ]);
  checki "oscillation beats budget" 4 (Stop.worst_exit_code [ 3; 4; 0 ]);
  checki "hard error beats everything" 2 (Stop.worst_exit_code [ 4; 2; 3 ])

let test_watchdog_suggest_threshold () =
  let small = Watchdog.suggest_threshold ~scc_gates:3 () in
  let large = Watchdog.suggest_threshold ~scc_gates:40 () in
  checkb "bigger loop, lower threshold" true (large <= small);
  checkb "floor holds" true (Watchdog.suggest_threshold ~scc_gates:100_000 () >= 16);
  checki "zero-size SCC clamps" (Watchdog.suggest_threshold ~scc_gates:1 ())
    (Watchdog.suggest_threshold ~scc_gates:0 ())

let test_site_budget_times_out () =
  let c, drives, cfg0 = Lazy.force campaign_fixture in
  let cfg =
    {
      cfg0 with
      Campaign.n = 4;
      site_budget = Budget.make ~max_events:3 ();
    }
  in
  let cam = Campaign.run cfg DL.tech c ~drives in
  checkb "campaign still completes" true cam.Campaign.cam_complete;
  List.iter
    (fun v ->
      checkb "every strangled site is timed_out" true
        (v.Campaign.vd_outcome = Campaign.Timed_out))
    cam.Campaign.cam_verdicts

let tests =
  [
    ( "guard",
      [
        Alcotest.test_case "budget monitor: exact event count" `Quick
          test_monitor_exact_events;
        Alcotest.test_case "budget monitor: queue cap" `Quick test_monitor_queue_cap;
        Alcotest.test_case "budget monitor: unlimited" `Quick test_monitor_unlimited;
        Alcotest.test_case "stop: rendering and exit codes" `Quick test_stop_render;
        Alcotest.test_case "diag: rendering" `Quick test_diag_render;
        Alcotest.test_case "iddm: exact event budget" `Quick
          test_iddm_event_budget_exact;
        Alcotest.test_case "iddm: sim-time budget" `Quick test_iddm_sim_time_budget;
        Alcotest.test_case "classic: event budget" `Quick test_classic_event_budget;
        QCheck_alcotest.to_alcotest prop_budget_prefix;
        Alcotest.test_case "watchdog: CDM ring trips" `Quick test_watchdog_trips_cdm;
        Alcotest.test_case "watchdog: classic ring trips" `Quick
          test_watchdog_trips_classic;
        Alcotest.test_case "watchdog: DDM ring quiesces (eq. 1)" `Quick
          test_watchdog_ddm_quiesces;
        Alcotest.test_case "watchdog: degrade mode freezes the SCC" `Quick
          test_watchdog_degrade_mode;
        Alcotest.test_case "watchdog: latch never trips" `Quick
          test_watchdog_ignores_latch;
        Alcotest.test_case "lint: NL008 flags the ring" `Quick test_nl008_flags_ring;
        Alcotest.test_case "lint: NL008 spares the NAND latch" `Quick
          test_nl008_spares_latch;
        Alcotest.test_case "lint: NL008 flags data-dependent parity" `Quick
          test_nl008_flags_ambiguous;
        Alcotest.test_case "journal: interrupted resume is byte-identical" `Quick
          test_resume_byte_identical;
        Alcotest.test_case "journal: config mismatch rejected" `Quick
          test_journal_mismatch_rejected;
        QCheck_alcotest.to_alcotest prop_shard_merge_equals_serial;
        QCheck_alcotest.to_alcotest prop_shard_ranges_partition;
        Alcotest.test_case "shard: range runs merge byte-identical" `Quick
          test_range_runs_merge_byte_identical;
        Alcotest.test_case "stop: worst exit code folding" `Quick test_worst_exit_code;
        Alcotest.test_case "watchdog: threshold suggestion" `Quick
          test_watchdog_suggest_threshold;
        Alcotest.test_case "campaign: per-site budget yields timed_out" `Quick
          test_site_budget_times_out;
      ] );
  ]
