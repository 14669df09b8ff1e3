(* Tests for the SET fault-injection subsystem: site enumeration,
   pulse splicing, outcome classification, and campaign determinism. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module T = Halotis_wave.Transition
module D = Halotis_wave.Digital
module W = Halotis_wave.Waveform
module DL = Halotis_tech.Default_lib
module Prng = Halotis_util.Prng
module Sim = Halotis_engine.Sim
module Site = Halotis_fault.Site
module Inject = Halotis_fault.Inject
module Campaign = Halotis_fault.Campaign
module Fault_report = Halotis_fault.Fault_report

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let vdd2 = DL.vdd /. 2.

let sid c n =
  match N.find_signal c n with Some s -> s | None -> Alcotest.failf "no signal %s" n

(* --- Inject --- *)

let test_pulse_validation () =
  checkb "negative width raises" true
    (try
       ignore (Inject.pulse ~width:(-1.) ());
       false
     with Invalid_argument _ -> true);
  checkb "zero slope raises" true
    (try
       ignore (Inject.pulse ~slope:0. ~width:100. ());
       false
     with Invalid_argument _ -> true)

(* The two ramps of a SET striking at [at], as {!Inject.injection}
   builds them for any site. *)
let set_ramps ~at ~polarity p =
  (Inject.injection { Site.st_signal = 0; st_gate = 0; st_polarity = polarity; st_at = at } p)
    .Sim.inj_ramps

let test_pulse_transitions () =
  let p = Inject.pulse ~slope:80. ~width:200. () in
  match set_ramps ~at:1000. ~polarity:T.Rising p with
  | [ lead; trail ] ->
      checkb "leading at" true (lead.T.start = 1000.);
      checkb "leading rises" true (lead.T.polarity = T.Rising);
      checkb "leading slope" true (lead.T.slope_time = 80.);
      checkb "trailing at" true (trail.T.start = 1200.);
      checkb "trailing falls" true (trail.T.polarity = T.Falling);
      checkb "trailing slope" true (trail.T.slope_time = 80.)
  | l -> Alcotest.failf "expected 2 transitions, got %d" (List.length l)

(* --- Site --- *)

let chain = lazy (G.inverter_chain ~n:4 ())

let chain_baseline =
  lazy
    (let c = Lazy.force chain in
     Iddm.run
       (Iddm.config ~t_stop:8000. DL.tech)
       c
       ~drives:[ (sid c "in", Drive.constant false) ])

let test_site_candidates () =
  let c = Lazy.force chain in
  let cands = Site.candidates c in
  checki "gate outputs only" (N.gate_count c) (List.length cands);
  checkb "primary input excluded" true (not (List.mem (sid c "in") cands))

let test_site_polarity () =
  let baseline = Lazy.force chain_baseline in
  let c = baseline.Iddm.circuit in
  (* in = 0, so out1 sits high and out2 low: a SET pulls the node the
     other way. *)
  let s1 = Site.of_signal ~baseline (sid c "out1") ~at:2000. in
  let s2 = Site.of_signal ~baseline (sid c "out2") ~at:2000. in
  checkb "high node struck falling" true (s1.Site.st_polarity = T.Falling);
  checkb "low node struck rising" true (s2.Site.st_polarity = T.Rising)

let test_site_sample_deterministic () =
  let baseline = Lazy.force chain_baseline in
  let sample seed =
    Site.sample ~baseline ~prng:(Prng.create ~seed) ~n:16 ~t0:500. ~t1:6000.
  in
  let a = sample 7 and b = sample 7 and c = sample 8 in
  checkb "same seed, same sites" true (List.for_all2 (fun x y -> Site.compare x y = 0) a b);
  checkb "different seed, different sites" true
    (not (List.for_all2 (fun x y -> Site.compare x y = 0) a c))

(* --- Campaign classification --- *)

let strike_chain ~width ~at =
  let c = Lazy.force chain in
  let baseline = Lazy.force chain_baseline in
  let site = Site.of_signal ~baseline (sid c "out1") ~at in
  let cfg =
    Campaign.config ~pulse:(Inject.pulse ~width ()) ~t_stop:8000. ()
  in
  let t =
    Campaign.run
      { cfg with Campaign.sites = Some [ site ] }
      DL.tech c
      ~drives:[ (sid c "in", Drive.constant false) ]
  in
  (List.hd t.Campaign.cam_verdicts).Campaign.vd_outcome

let prop_wide_pulse_propagates =
  QCheck.Test.make ~name:"wide SET always reaches a primary output" ~count:40
    QCheck.(pair (float_range 400. 1000.) (float_range 1000. 5000.))
    (fun (width, at) -> strike_chain ~width ~at = Campaign.Propagated)

let prop_runt_never_propagates =
  (* width <= 15 ps at 100 ps slope peaks at 0.75 V, far below the
     2.5 V threshold: the strike must die electrically, every time. *)
  QCheck.Test.make ~name:"sub-threshold runt never propagates" ~count:40
    QCheck.(pair (float_range 1. 15.) (float_range 1000. 5000.))
    (fun (width, at) -> strike_chain ~width ~at = Campaign.Electrically_masked)

(* The Fig. 1 discrimination scenario, replayed as a fault campaign: a
   runt SET on out0 peaks between the sibling inverters' thresholds,
   so it enters g1 (VT 1.5 V) but never registers at g2 (VT 4.0 V). *)
let test_fig1_split () =
  let f = G.fig1_circuit () in
  let c = f.G.circuit in
  let drives = [ (f.G.sig_in, Drive.constant false) ] in
  let cfg = Iddm.config ~t_stop:6000. DL.tech in
  let baseline = Iddm.run cfg c ~drives in
  let site = Site.of_signal ~baseline f.G.sig_out0 ~at:2000. in
  checkb "out0 low, struck rising" true (site.Site.st_polarity = T.Rising);
  (* 60 ps at 100 ps slope peaks at 3.0 V: between the thresholds. *)
  let injected =
    let r =
      Sim.run Sim.Ddm
        (Sim.spec ~drives ~t_stop:6000.
           ~injections:[ Inject.injection site (Inject.pulse ~width:60. ()) ]
           ~tech:DL.tech c)
    in
    match Sim.iddm r with Some r -> r | None -> assert false
  in
  let tx r s = List.length (W.transitions_from r.Iddm.waveforms.(s) 0) in
  checkb "g1 branch disturbed" true (tx injected f.G.sig_out1 > tx baseline f.G.sig_out1);
  checki "g2 output untouched" (tx baseline f.G.sig_out2) (tx injected f.G.sig_out2);
  checki "g2 buffer untouched" (tx baseline f.G.sig_out2c) (tx injected f.G.sig_out2c);
  checkb "victim records the pulse" true (tx injected f.G.sig_out0 > tx baseline f.G.sig_out0)

(* --- Determinism golden --- *)

let test_campaign_reports_reproducible () =
  let c = G.inverter_chain ~n:6 () in
  let drives = [ (sid c "in", Drive.constant false) ] in
  let cfg = Campaign.config ~seed:5 ~n:20 ~t_stop:9000. () in
  let a = Campaign.run cfg DL.tech c ~drives in
  let b = Campaign.run cfg DL.tech c ~drives in
  Alcotest.(check string) "json byte-identical" (Fault_report.to_string a)
    (Fault_report.to_string b);
  Alcotest.(check string) "text byte-identical" (Fault_report.to_text a)
    (Fault_report.to_text b);
  let other = Campaign.run (Campaign.config ~seed:6 ~n:20 ~t_stop:9000. ()) DL.tech c ~drives in
  checkb "different seed samples different sites" true
    (Fault_report.to_string a <> Fault_report.to_string other)

(* A campaign whose [completed] already covers every site (the resume
   of a finished journal, or a supervised merge) runs no site: it
   reports what the fresh run did, and never builds the cone context. *)
let test_campaign_resume_of_finished_run () =
  let c = G.inverter_chain ~n:6 () in
  let drives = [ (sid c "in", Drive.constant false) ] in
  let cfg = Campaign.config ~seed:5 ~n:20 ~t_stop:9000. () in
  let fresh = Campaign.run cfg DL.tech c ~drives in
  checkb "the fresh run armed the cone" true (fresh.Campaign.cam_cone <> None);
  let resumed =
    Campaign.run { cfg with Campaign.completed = fresh.Campaign.cam_verdicts } DL.tech c ~drives
  in
  Alcotest.(check string) "report byte-identical" (Fault_report.to_string fresh)
    (Fault_report.to_string resumed);
  checkb "no cone context built" true (resumed.Campaign.cam_cone = None)

let test_campaign_counts_consistent () =
  let c = G.inverter_chain ~n:6 () in
  let drives = [ (sid c "in", Drive.constant false) ] in
  let t = Campaign.run (Campaign.config ~seed:5 ~n:20 ~t_stop:9000. ()) DL.tech c ~drives in
  let propagated, electrical, logical = Campaign.counts t in
  checki "verdict per injection" 20 (List.length t.Campaign.cam_verdicts);
  checki "counts partition the verdicts" 20 (propagated + electrical + logical);
  checkb "masking rate in [0,1]" true
    (Campaign.masking_rate t >= 0. && Campaign.masking_rate t <= 1.);
  List.iter
    (fun (gid, hits) ->
      checkb "vulnerable gate exists" true (gid >= 0 && gid < N.gate_count c);
      checkb "positive hit count" true (hits > 0))
    (Campaign.vulnerability t)

(* --- Classic engine injections --- *)

let test_classic_strike_not_preempted () =
  (* Driver activity long before the strike must not swallow it: a
     particle hit is not a driver transaction. *)
  let c = Lazy.force chain in
  let input = sid c "in" in
  let drives = [ (input, Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  let cfg = Campaign.config ~engine:Campaign.Classic_inertial ~t_stop:8000. () in
  let baseline = Iddm.run (Iddm.config ~t_stop:8000. DL.tech) c ~drives in
  let site = Site.of_signal ~baseline (sid c "out") ~at:6000. in
  let t =
    Campaign.run { cfg with Campaign.sites = Some [ site ] } DL.tech c ~drives
  in
  checkb "late strike on output propagates" true
    ((List.hd t.Campaign.cam_verdicts).Campaign.vd_outcome = Campaign.Propagated)

(* --- journal loader on hostile input --- *)

module Journal = Halotis_fault.Journal
module Diag = Halotis_util.Diag

let with_temp_file contents f =
  let path = Filename.temp_file "halotis_journal_fuzz" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents);
      f path)

(* A real v3 journal written by the production writer: verdict records
   covering every outcome and several stop tokens, one quarantine
   record, and optionally a shard range and an overlay token. *)
let real_journal ~range ~overlay =
  let verdict i =
    let st = Halotis_engine.Stats.create () in
    st.Halotis_engine.Stats.events_scheduled <- 10 + i;
    st.Halotis_engine.Stats.events_processed <- 7 * i;
    st.Halotis_engine.Stats.stopped_by <-
      (match i mod 4 with
      | 0 -> Halotis_guard.Stop.Completed
      | 1 -> Halotis_guard.Stop.Event_budget 5
      | 2 -> Halotis_guard.Stop.Wall_clock 1.5
      | _ -> Halotis_guard.Stop.Oscillation [ "a"; "b" ]);
    {
      Campaign.vd_site =
        {
          Site.st_signal = i + 3;
          st_gate = i;
          st_polarity = (if i land 1 = 0 then T.Rising else T.Falling);
          st_at = 1000. +. (333.25 *. float_of_int i);
        };
      vd_outcome =
        List.nth
          Campaign.[ Propagated; Electrically_masked; Logically_masked; Timed_out ]
          (i mod 4);
      vd_po_edges_delta = i mod 3;
      vd_first_diff_output = (if i mod 4 = 0 then Some "y" else None);
      vd_stats = st;
    }
  in
  let lo = match range with Some (lo, _) -> lo | None -> 0 in
  let cfg = Campaign.config ~n:8 ~window:(100., 9000.) ~t_stop:10_000. () in
  let h = { (Journal.header_of ~circuit:"fuzz" ?range cfg) with Journal.jh_overlay = overlay } in
  with_temp_file "" (fun path ->
      let w = Journal.open_new path h in
      for i = lo to lo + 5 do
        if i = lo + 2 then Journal.write_quarantine w i else Journal.write w i (verdict i)
      done;
      Journal.close w;
      In_channel.with_open_bin path In_channel.input_all)

let fuzz_bases =
  lazy
    [|
      real_journal ~range:None ~overlay:None;
      real_journal ~range:(Some (4, 12)) ~overlay:None;
      real_journal ~range:None ~overlay:(Some "00ff");
      real_journal ~range:(Some (0, 8)) ~overlay:(Some "abc");
    |]

type mutation =
  | Truncate of int
  | Flip of int * char
  | Swap_tokens of int * int * int  (* line, token, token *)
  | Drop_token of int * int  (* line, token *)
  | Magic of string
  | Params of int * string  (* 0 replace the last token, 1 append, 2 drop the last *)
  | Insert of int * string  (* before line *)

let map_lines text f =
  let a = Array.of_list (String.split_on_char '\n' text) in
  f a;
  String.concat "\n" (Array.to_list a)

let map_tokens line f =
  let t = Array.of_list (String.split_on_char ' ' line) in
  String.concat " " (f t)

let params_line a =
  let rec go i =
    if i >= Array.length a then None
    else if String.starts_with ~prefix:"! params" a.(i) then Some i
    else go (i + 1)
  in
  go 0

let mutate text = function
  | Truncate k -> String.sub text 0 (k mod (String.length text + 1))
  | Flip (k, ch) ->
      if text = "" then text
      else
        let k = k mod String.length text in
        String.mapi (fun i c -> if i = k then ch else c) text
  | Swap_tokens (l, i, j) ->
      map_lines text (fun a ->
          let l = l mod Array.length a in
          a.(l) <-
            map_tokens a.(l) (fun t ->
                let n = Array.length t in
                let i = i mod n and j = j mod n in
                let x = t.(i) in
                t.(i) <- t.(j);
                t.(j) <- x;
                Array.to_list t))
  | Drop_token (l, i) ->
      map_lines text (fun a ->
          let l = l mod Array.length a in
          a.(l) <-
            map_tokens a.(l) (fun t ->
                let i = i mod Array.length t in
                List.filteri (fun k _ -> k <> i) (Array.to_list t)))
  | Magic m -> map_lines text (fun a -> a.(0) <- m)
  | Params (op, tok) ->
      map_lines text (fun a ->
          match params_line a with
          | None -> ()
          | Some l ->
              a.(l) <-
                map_tokens a.(l) (fun t ->
                    let n = Array.length t in
                    let keep = Array.to_list (Array.sub t 0 (n - 1)) in
                    match op with
                    | 0 -> keep @ [ tok ]
                    | 1 -> Array.to_list t @ [ tok ]
                    | _ -> keep))
  | Insert (l, line) ->
      let a = String.split_on_char '\n' text in
      let l = l mod (List.length a + 1) in
      String.concat "\n" (List.filteri (fun i _ -> i < l) a @ (line :: List.filteri (fun i _ -> i >= l) a))

let gen_mutation =
  let open QCheck.Gen in
  let pos = int_bound 100_000 in
  frequency
    [
      (2, map (fun k -> Truncate k) pos);
      (3, map2 (fun k c -> Flip (k, c)) pos (oneof [ oneofl [ ' '; '\n'; 'p'; '-'; ':' ]; char ]));
      (2, map3 (fun l i j -> Swap_tokens (l, i, j)) pos pos pos);
      (2, map2 (fun l i -> Drop_token (l, i)) pos pos);
      ( 1,
        map
          (fun m -> Magic m)
          (oneofl
             [
               "# halotis-faults journal v1"; "# halotis-faults journal v2";
               "# halotis-faults journal v9"; "";
             ]) );
      ( 3,
        map2
          (fun op tok -> Params (op, tok))
          (int_bound 2)
          (oneofl [ "p"; "-"; "ov:"; "ov:00ff"; "ov:p"; "x"; "" ]) );
      ( 3,
        map2
          (fun l line -> Insert (l, line))
          pos
          (oneofl
             [
               "! range"; "! range 1"; "! range a b"; "! range -3 2"; "! range 5 1";
               "! range 0 99999999999999999999"; "! range 0x1p3 9"; "q"; "q x"; "q -1";
               "v"; "! params"; "! circuit"; "#"; "";
               "v 0 0 0 R nan propagated 0 - 0 0 0 0 0 0 0 -";
               "v 1 2 3 F 0x1p+10 logically-masked 0 - 1 1 1 1 1 1 1 - p";
             ]) );
    ]

(* ROADMAP item 7: [Journal.load] on a damaged file returns a value or
   raises [Diag.Fail] — never any other exception. *)
let prop_journal_load_never_raises =
  let gen =
    QCheck.Gen.(
      map
        (fun (b, ms) -> List.fold_left mutate (Lazy.force fuzz_bases).(b) ms)
        (pair (int_bound 3) (list_size (int_range 1 4) gen_mutation)))
  in
  QCheck.Test.make ~name:"journal load: a value or a Diag on mutated journals" ~count:400
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun text ->
      with_temp_file text (fun path ->
          match Journal.load path with _ -> true | exception Diag.Fail _ -> true))

(* A v2 journal from a statically pruned campaign ([p] PRUNE token, a
   trailing [p] on its verdict records): the feature is gone, so the
   loader refuses it with a hint instead of resuming it. *)
let test_journal_pruned_v2_refused () =
  let text =
    String.concat "\n"
      [
        "# halotis-faults journal v2";
        "! circuit chain";
        "! params ddm 1 100 0x1.4p+5 0x1.9p+6 0x1.d4cp+14 - - p";
        "v 0 3 2 R 0x1.86ap+14 electrically-masked 0 - 0 0 0 0 0 0 0 - p";
        "";
      ]
  in
  with_temp_file text (fun path ->
      match Journal.load path with
      | _ -> Alcotest.fail "a statically pruned campaign's journal must be refused"
      | exception Diag.Fail d ->
          Alcotest.(check string) "diag code" "journal-parse" d.Diag.code;
          Alcotest.(check (option string))
            "hint" (Some "--prune static was removed; re-run without --resume") d.Diag.hint)

(* --- incremental cone re-simulation --- *)

module Compiled = Halotis_engine.Compiled

(* Structural invariants of the static fanout cone: the victim and
   every member gate's output are members, membership is closed under
   fanout (the property that makes a cone run escape-proof), and the
   boundary feeds are exactly the member-gate pins driven from
   outside. *)
let test_fanout_cone_structure () =
  let c, _ = Test_perf_equiv.workload ~gates:30 ~seed:17 in
  let cp = Compiled.compile DL.tech c in
  let marks = Compiled.cone_marks cp in
  List.iter
    (fun victim ->
      let cone = Compiled.fanout_cone ~marks:(Compiled.cone_marks cp) cp ~victim in
      (* shared marks are cleared after every walk *)
      checkb "walk with shared marks == fresh walk" true
        (Compiled.fanout_cone ~marks cp ~victim = cone);
      let member = Compiled.mem_sorted cone.Compiled.cone_signals in
      checkb "victim is a member" true (member victim);
      checkb "victim listed" true (Array.mem victim cone.Compiled.cone_signals);
      Array.iter
        (fun g -> checkb "gate output is a member" true (member cp.Compiled.g_out.(g)))
        cone.Compiled.cone_gates;
      Array.iter
        (fun sid ->
          checkb "member flag consistent" true (member sid);
          for e = cp.Compiled.fan_off.(sid) to cp.Compiled.fan_off.(sid + 1) - 1 do
            checkb "fanout closure" true
              (Array.mem cp.Compiled.fan_gate.(e) cone.Compiled.cone_gates)
          done)
        cone.Compiled.cone_signals;
      checki "boundary arrays parallel"
        (Array.length cone.Compiled.cone_bnd_gate)
        (Array.length cone.Compiled.cone_bnd_pin);
      Array.iteri
        (fun k g ->
          let pin = cone.Compiled.cone_bnd_pin.(k) in
          let sid = cp.Compiled.pin_fanin.(cp.Compiled.g_base.(g) + pin) in
          checkb "boundary gate is a member" true
            (Array.mem g cone.Compiled.cone_gates);
          checkb "boundary feed comes from outside" true (not (member sid)))
        cone.Compiled.cone_bnd_gate)
    (List.filteri (fun i _ -> i mod 7 = 0) (Site.candidates c))

(* Direct graft check: an [Exact] cone outcome must reproduce the full
   injected run's digitized edges and counters exactly — the identity
   the whole optimization rests on. *)
let test_cone_exact_matches_full () =
  let c, drives = Test_perf_equiv.workload ~gates:30 ~seed:42 in
  let spec = Sim.spec ~drives ~t_stop:12_000. ~tech:DL.tech c in
  let base = Sim.run Sim.Ddm spec in
  let ctx =
    match Sim.Cone.create Sim.Ddm spec ~baseline:base with
    | Some ctx -> ctx
    | None -> Alcotest.fail "cone context refused a completed baseline"
  in
  let baseline = match Sim.iddm base with Some r -> r | None -> assert false in
  let exact = ref 0 in
  List.iteri
    (fun i victim ->
      let site = Site.of_signal ~baseline victim ~at:(3000. +. (137. *. float_of_int i)) in
      let inj = Inject.injection site (Inject.pulse ~width:150. ()) in
      match Sim.Cone.run_site ctx inj with
      | Sim.Cone.Fallback _ -> ()
      | Sim.Cone.Exact { edges; stats; _ } ->
          incr exact;
          let full = Sim.run Sim.Ddm { spec with Sim.sp_injections = [ inj ] } in
          let full_edges = Sim.edges full in
          Array.iteri
            (fun sid es -> checkb "edges identical" true (es = full_edges.(sid)))
            edges;
          checkb "stats identical" true
            (stats = Halotis_engine.Stats.copy full.Sim.rs_stats))
    (Site.candidates c);
  checkb "at least one exact site (non-vacuous)" true (!exact > 0);
  let tot = Sim.Cone.totals ctx in
  checki "totals count the exact sites" !exact tot.Sim.Cone.ct_exact

(* Primary inputs have no driver gate and their baseline waveform
   carries the drive itself — the cone path must refuse, not graft. *)
let test_cone_pi_victim_falls_back () =
  let c = Lazy.force chain in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  let spec = Sim.spec ~drives ~t_stop:8000. ~tech:DL.tech c in
  let base = Sim.run Sim.Ddm spec in
  let ctx =
    match Sim.Cone.create Sim.Ddm spec ~baseline:base with
    | Some ctx -> ctx
    | None -> Alcotest.fail "cone context refused a completed baseline"
  in
  match
    Sim.Cone.run_site ctx
      {
        Sim.inj_signal = sid c "in";
        inj_ramps =
          set_ramps ~at:2000. ~polarity:T.Rising (Inject.pulse ~width:150. ());
      }
  with
  | Sim.Cone.Fallback _ -> ()
  | Sim.Cone.Exact _ -> Alcotest.fail "primary-input victim must fall back"

(* Headline equivalence property: incremental and full campaigns agree
   byte-for-byte — reports and journal files — across random circuits,
   seeds and all three engines.  (Campaigns sample their sites from a
   DDM baseline whatever the engine.) *)
let prop_incremental_equals_full =
  QCheck.Test.make ~name:"incremental cone campaign == full re-simulation" ~count:12
    QCheck.(pair (int_range 10 35) (int_range 0 1000))
    (fun (gates, seed) ->
      let c, drives = Test_perf_equiv.workload ~gates ~seed in
      let engine =
        match seed mod 3 with 0 -> Campaign.Ddm | 1 -> Campaign.Cdm | _ -> Campaign.Classic_inertial
      in
      let cfg incremental =
        Campaign.config ~engine ~seed:(seed + 11) ~n:12 ~incremental ~t_stop:12_000. ()
      in
      let campaign_and_journal cfg =
        let path = Filename.temp_file "halotis_cone_test" ".journal" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
          (fun () ->
            let w =
              Journal.open_new path (Journal.header_of ~circuit:(N.name c) cfg)
            in
            let t =
              Campaign.run
                ~on_verdict:(fun i v -> Journal.write w i v)
                cfg DL.tech c ~drives
            in
            Journal.close w;
            let ic = open_in_bin path in
            let bytes =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            (t, bytes))
      in
      let t_on, j_on = campaign_and_journal (cfg true) in
      let t_off, j_off = campaign_and_journal (cfg false) in
      Fault_report.to_string t_on = Fault_report.to_string t_off
      && Fault_report.to_text t_on = Fault_report.to_text t_off
      && j_on = j_off
      && t_off.Campaign.cam_cone = None
      && match t_on.Campaign.cam_cone with
         | None -> false
         | Some tot ->
             tot.Sim.Cone.ct_exact + tot.Sim.Cone.ct_fallback
             = List.length t_on.Campaign.cam_verdicts)

(* Deliberate coincidence fixture: strike the victim at the exact
   instant a boundary-feed event fires inside its cone.  The injected
   cone run pops two same-instant events — the splice and a replayed
   pin event — whose order the queue's intrinsic ranks fix identically
   in cone and full runs (splice first), so the graft must stay exact
   and the report byte-identical to incremental-off.  This is the
   regression test for the rank-based tie-break: under history-derived
   (FIFO) tie-breaking this very fixture diverges. *)
let test_cone_same_instant_strike_exact () =
  let c = Lazy.force chain in
  let input = sid c "in" in
  let drives = [ (input, Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  let baseline = Iddm.run (Iddm.config ~t_stop:8000. DL.tech) c ~drives in
  let victim = sid c "out2" in
  (* out2's driver gate is fed by out1 — a boundary signal of out2's
     cone.  Its replayed event fires when out1 crosses that pin's
     threshold; strike at exactly that instant. *)
  let cp = Compiled.compile DL.tech c in
  let driver =
    match (N.signal c victim).N.driver with Some g -> g | None -> assert false
  in
  let slot = cp.Compiled.g_base.(driver) in
  let at =
    W.last_crossing baseline.Iddm.waveforms.(cp.Compiled.pin_fanin.(slot))
      ~vt:cp.Compiled.pin_vt.(slot)
  in
  checkb "fixture has a boundary crossing" true (not (Float.is_nan at));
  let site = Site.of_signal ~baseline victim ~at in
  let cfg incremental = Campaign.config ~incremental ~t_stop:8000. () in
  let with_site cfg = { cfg with Campaign.sites = Some [ site ] } in
  let t_on = Campaign.run (with_site (cfg true)) DL.tech c ~drives in
  let t_off = Campaign.run (with_site (cfg false)) DL.tech c ~drives in
  (match t_on.Campaign.cam_cone with
  | None -> Alcotest.fail "incremental was refused outright"
  | Some tot -> checki "site grafted exactly" 1 tot.Sim.Cone.ct_exact);
  Alcotest.(check string) "report byte-identical" (Fault_report.to_string t_off)
    (Fault_report.to_string t_on)

(* A classic cone run queues the replayed edges of its gate-driven
   boundary feeds at the start, not when the full run queued them; the
   queue's intrinsic ranks still pop them in the full run's order.  So
   a strike whose forced toggle commits at the very instant a replayed
   boundary edge commits must graft exactly: the edges and counters of
   the full injected run, and a campaign report byte-identical to full
   re-simulation. *)
let test_classic_cone_tie_exact () =
  let c = Lazy.force chain in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  let spec = Sim.spec ~drives ~t_stop:8000. ~tech:DL.tech c in
  let base = Sim.run Sim.Classic_inertial spec in
  let baseline = Iddm.run (Iddm.config ~t_stop:8000. DL.tech) c ~drives in
  (* out2's driver is fed by out1, a gate-driven boundary feed of
     out2's cone: strike out2 so its toggle lands on out1's edge *)
  let victim = sid c "out2" in
  let edge_at =
    match (Sim.edges base).(sid c "out1") with
    | e :: _ -> e.D.at
    | [] -> Alcotest.fail "fixture: out1 never switches"
  in
  let pulse = Inject.pulse ~width:150. () in
  let toggle_at at =
    fst (Halotis_engine.Classic.toggle (List.hd (set_ramps ~at ~polarity:T.Rising pulse)))
  in
  (* the ramp start whose 50 % point is [edge_at] *)
  let site = Site.of_signal ~baseline victim ~at:(edge_at -. (pulse.Inject.slope /. 2.)) in
  let inj = Inject.injection site pulse in
  checkb "strike toggle ties with the boundary edge (non-vacuous)" true
    (toggle_at site.Site.st_at = edge_at);
  checkb "the toggle flips the victim" true
    (site.Site.st_polarity = T.Rising
    && (not (Sim.initial_levels base).(victim))
    && List.for_all (fun (e : D.edge) -> e.D.at > edge_at) (Sim.edges base).(victim));
  let ctx =
    match Sim.Cone.create Sim.Classic_inertial spec ~baseline:base with
    | Some ctx -> ctx
    | None -> Alcotest.fail "cone context refused a completed classic baseline"
  in
  (match Sim.Cone.run_site ctx inj with
  | Sim.Cone.Fallback reason -> Alcotest.failf "the tie fell back: %s" reason
  | Sim.Cone.Exact { edges; stats; _ } ->
      let full = Sim.run Sim.Classic_inertial { spec with Sim.sp_injections = [ inj ] } in
      checkb "edges identical" true (edges = Sim.edges full);
      checkb "stats identical" true (stats = Halotis_engine.Stats.copy full.Sim.rs_stats));
  let campaign incremental =
    Campaign.run
      {
        (Campaign.config ~engine:Campaign.Classic_inertial ~incremental ~t_stop:8000. ()) with
        Campaign.sites = Some [ site ];
      }
      DL.tech c ~drives
  in
  let t_on = campaign true and t_off = campaign false in
  (match t_on.Campaign.cam_cone with
  | None -> Alcotest.fail "incremental was refused outright"
  | Some tot -> checki "site grafted exactly" 1 tot.Sim.Cone.ct_exact);
  Alcotest.(check string) "report byte-identical" (Fault_report.to_string t_off)
    (Fault_report.to_string t_on)

(* Four primary inputs switching at one instant into one cone gate, as
   the multiplier's operand bits do.  Which switch pops first and last
   decides the gate's delay pin, so the cone run must rank the inputs'
   switches as the full run does (in the drive table's order) for its
   clean replay to reproduce the baseline and its graft to be exact. *)
let test_classic_cone_simultaneous_inputs_exact () =
  let c =
    match
      Halotis_netlist.Hnl.parse_string
        "circuit sync\ninput a b c d\noutput y\ngate g1 nand4 n1 a b c d\n\
         gate g2 inv n2 n1\ngate g3 inv y n2\nend\n"
    with
    | Ok c -> c
    | Error e -> Alcotest.failf "fixture: %a" Halotis_util.Diag.pp e
  in
  let drive = Drive.of_levels ~slope:60. ~initial:false [ (4000., true); (8000., false) ] in
  let drives = List.map (fun n -> (sid c n, drive)) [ "a"; "b"; "c"; "d" ] in
  let spec = Sim.spec ~drives ~t_stop:12_000. ~tech:DL.tech c in
  let base = Sim.run Sim.Classic_inertial spec in
  let baseline = Iddm.run (Iddm.config ~t_stop:12_000. DL.tech) c ~drives in
  let ctx =
    match Sim.Cone.create Sim.Classic_inertial spec ~baseline:base with
    | Some ctx -> ctx
    | None -> Alcotest.fail "cone context refused a completed classic baseline"
  in
  List.iter
    (fun (name, at) ->
      let site = Site.of_signal ~baseline (sid c name) ~at in
      let inj = Inject.injection site (Inject.pulse ~width:150. ()) in
      match Sim.Cone.run_site ctx inj with
      | Sim.Cone.Fallback r -> Alcotest.failf "%s at %.0f fell back: %s" name at r
      | Sim.Cone.Exact { edges; stats; cone_gates; _ } ->
          let full = Sim.run Sim.Classic_inertial { spec with Sim.sp_injections = [ inj ] } in
          checkb "the inputs' gate is in the cone" true (cone_gates >= 2);
          checkb "edges identical" true (edges = Sim.edges full);
          checkb "stats identical" true (stats = Halotis_engine.Stats.copy full.Sim.rs_stats))
    [ ("n1", 2000.); ("n1", 4100.); ("n2", 6000.); ("n1", 8030.) ]

(* Classic cone runs on tie-rich stimuli: inputs that switch together
   on one grid ({!Test_perf_equiv.tie_workload}), and strikes on random
   signals whose toggles land on instants at which the baseline commits
   edges.  Every site on a driven victim must graft exactly, with no
   replay-hazard fallback, and equal full re-simulation edge for edge
   and counter for counter; only driverless victims fall back. *)
let prop_classic_cone_ties_exact =
  QCheck.Test.make ~name:"classic cone on tie-rich stimuli == full run, never a hazard"
    ~count:20
    QCheck.(pair (int_range 10 35) (int_range 0 1000))
    (fun (gates, seed) ->
      let c, drives = Test_perf_equiv.tie_workload ~gates ~seed in
      let spec = Sim.spec ~drives ~t_stop:12_000. ~tech:DL.tech c in
      let base = Sim.run Sim.Classic_inertial spec in
      let ctx =
        match Sim.Cone.create Sim.Classic_inertial spec ~baseline:base with
        | Some ctx -> ctx
        | None -> Alcotest.fail "cone context refused a completed classic baseline"
      in
      let instants = Test_perf_equiv.edge_instants (Sim.edges base) in
      let rng = Prng.create ~seed:(seed + 5) in
      let pick () = instants.(Prng.int rng ~bound:(Array.length instants)) in
      let slope = 100. in
      let exact = ref 0 in
      let site _ =
        let victim = Prng.int rng ~bound:(N.signal_count c) in
        let a = pick () and b = pick () in
        (* both toggles (50 % points) on edge instants where possible *)
        let width = if a = b then 150. else Float.abs (a -. b) in
        let pulse = Inject.pulse ~slope ~width () in
        let polarity = if Prng.bool rng then T.Rising else T.Falling in
        let inj =
          {
            Sim.inj_signal = victim;
            inj_ramps = set_ramps ~at:(Float.min a b -. (slope /. 2.)) ~polarity pulse;
          }
        in
        match Sim.Cone.run_site ctx inj with
        | Sim.Cone.Fallback _ -> (N.signal c victim).N.driver = None
        | Sim.Cone.Exact { edges; stats; _ } ->
            incr exact;
            let full = Sim.run Sim.Classic_inertial { spec with Sim.sp_injections = [ inj ] } in
            edges = Sim.edges full && stats = Halotis_engine.Stats.copy full.Sim.rs_stats
      in
      instants <> [||] && List.for_all site (List.init 16 Fun.id) && !exact > 0)

(* Workspace reuse: one context driven through a random site sequence —
   repeated victims, primary-input victims that fall back, and strikes
   so late that the horizon cuts the cone run with events still queued
   — must answer every site exactly as a fresh context would, its exact
   grafts must equal full re-simulation on every signal's edges and
   every counter, and a campaign over the same sites must report what
   full re-simulation reports.  All three engines; sites take their
   polarity from a DDM baseline, as campaigns do. *)
let prop_cone_reuse_equals_fresh =
  QCheck.Test.make ~name:"reused cone context == fresh context per site" ~count:30
    QCheck.(pair (int_range 10 35) (int_range 0 1000))
    (fun (gates, seed) ->
      let t_stop = 12_000. in
      let c, drives = Test_perf_equiv.workload ~gates ~seed in
      let engine = match seed mod 3 with 0 -> Sim.Ddm | 1 -> Sim.Cdm | _ -> Sim.Classic_inertial in
      let spec = Sim.spec ~drives ~t_stop ~tech:DL.tech c in
      let base = Sim.run engine spec in
      let baseline =
        Option.get (Sim.iddm (if engine = Sim.Ddm then base else Sim.run Sim.Ddm spec))
      in
      let fresh () =
        match Sim.Cone.create engine spec ~baseline:base with
        | Some ctx -> ctx
        | None -> Alcotest.fail "cone context refused a completed baseline"
      in
      let rng = Prng.create ~seed:(seed + 3) in
      let pick a = a.(Prng.int rng ~bound:(Array.length a)) in
      (* late strikes need a victim with loads, or nothing is queued *)
      let loaded =
        Array.of_list
          (List.filter
             (fun s -> Array.length (N.signal c s).N.loads > 0)
             (Site.candidates c))
      in
      let victims = Array.init 3 (fun _ -> pick loaded) in
      let pis = Array.of_list (N.primary_inputs c) in
      let pulse = Inject.pulse ~width:150. () in
      let site_at at = Site.of_signal ~baseline (pick victims) ~at in
      let plan =
        List.init 16 (fun k ->
            match k mod 4 with
            | 3 -> `Pi (pick pis, Prng.float rng ~bound:3000.)
            | 2 -> `Late (site_at (t_stop -. Prng.float rng ~bound:100.))
            | _ -> `Early (site_at (Prng.float rng ~bound:3000.)))
      in
      let shared = fresh () in
      let cut = ref 0 and late_exact = ref 0 and exact = ref 0 in
      let same_site step =
        let inj =
          match step with
          | `Pi (s, at) ->
              { Sim.inj_signal = s; inj_ramps = set_ramps ~at ~polarity:T.Rising pulse }
          | `Late site | `Early site -> Inject.injection site pulse
        in
        match (Sim.Cone.run_site shared inj, Sim.Cone.run_site (fresh ()) inj, step) with
        | Sim.Cone.Fallback r1, Sim.Cone.Fallback r2, _ -> r1 = r2
        | Sim.Cone.Exact _, _, `Pi _ -> false
        | ( Sim.Cone.Exact
              { edges = e1; members = m1; stats = s1; cone_gates = g1; cone_events = v1 },
            Sim.Cone.Exact
              { edges = e2; members = m2; stats = s2; cone_gates = g2; cone_events = v2 },
            _ ) ->
            incr exact;
            (match step with
            | `Late _ ->
                incr late_exact;
                let queued =
                  match engine with
                  | Sim.Classic_inertial ->
                      (* injected toggles are queued, never scheduled:
                         one past the horizon stays in the queue *)
                      List.exists
                        (fun r -> fst (Halotis_engine.Classic.toggle r) > t_stop)
                        inj.Sim.inj_ramps
                  | Sim.Ddm | Sim.Cdm ->
                      let d = Halotis_engine.Stats.diff s1 base.Sim.rs_stats in
                      let open Halotis_engine.Stats in
                      d.events_scheduled > d.events_processed + d.events_filtered
                in
                if queued then incr cut
            | `Early _ | `Pi _ -> ());
            let full = Sim.run engine { spec with Sim.sp_injections = [ inj ] } in
            e1 = e2 && m1 = m2 && s1 = s2 && g1 = g2 && v1 = v2
            && e1 = Sim.edges full
            && s1 = Halotis_engine.Stats.copy full.Sim.rs_stats
        | _ -> false
      in
      let sites_same = List.for_all same_site plan in
      let sites =
        List.filter_map (function `Late s | `Early s -> Some s | `Pi _ -> None) plan
      in
      let campaign incremental =
        Fault_report.to_string
          (Campaign.run
             { (Campaign.config ~engine ~incremental ~t_stop ()) with Campaign.sites = Some sites }
             DL.tech c ~drives)
      in
      sites_same
      && (!late_exact = 0 || !cut > 0)
      && !exact > 0
      && campaign true = campaign false)

(* The O(cone) claim, host-independently: the words one cone site
   allocates must not grow with the circuit around the cone.  The same
   three-gate cone sits next to ~50 and then ~2000 unrelated gates, for
   a repeated strike and for the first strike on a victim (its cone walk
   and clean replay included).  A
   strike so late that the horizon leaves its events queued must not
   grow the cost from site to site either: the workspace reclaims the
   queued events instead of leaking pool slots.  Both engines' cone
   workspaces are checked: they share the event kernel's pool. *)
let test_cone_site_alloc_independent_of_circuit () =
  let circuit unrelated =
    let b = Buffer.create 4096 in
    Buffer.add_string b "circuit alloc\ninput a u\noutput y\n";
    Buffer.add_string b "gate c1 inv n1 a\ngate c2 nand2 n2 n1 a\ngate c3 inv y n2\n";
    for k = 0 to unrelated - 1 do
      let src = if k mod 10 = 0 then "u" else Printf.sprintf "u%d" (k - 1) in
      Printf.bprintf b "gate g%d inv u%d %s\n" k k src
    done;
    Buffer.add_string b "end\n";
    match Halotis_netlist.Hnl.parse_string (Buffer.contents b) with
    | Ok c -> c
    | Error e -> Alcotest.failf "fixture: %a" Halotis_util.Diag.pp e
  in
  (* [first_strike]: measure the first strike on the victim, which
     walks its cone and replays it clean, after one on another victim
     warmed the workspace's pools *)
  let site_words ?(repeat = 1) ?(first_strike = false) ~engine ~at unrelated =
    let c = circuit unrelated in
    let drive = Drive.of_levels ~slope:60. ~initial:false [ (1000., true); (5000., false) ] in
    let drives = [ (sid c "a", drive); (sid c "u", drive) ] in
    let spec = Sim.spec ~drives ~t_stop:8000. ~tech:DL.tech c in
    let baseline = Option.get (Sim.iddm (Sim.run Sim.Ddm spec)) in
    let ctx =
      match Sim.Cone.create engine spec ~baseline:(Sim.run engine spec) with
      | Some ctx -> ctx
      | None -> Alcotest.fail "cone context refused a completed baseline"
    in
    let inj name =
      Inject.injection (Site.of_signal ~baseline (sid c name) ~at) (Inject.pulse ~width:150. ())
    in
    let strike inj gates =
      match Sim.Cone.run_site ctx inj with
      | Sim.Cone.Exact { cone_gates; _ } -> checki "cone size" gates cone_gates
      | Sim.Cone.Fallback r -> Alcotest.failf "unexpected fallback: %s" r
    in
    let n1 = inj "n1" and n2 = inj "n2" in
    let run () = strike n1 3 in
    (* the first site builds its victim's cone, replays it clean and
       warms the workspace's pools *)
    if first_strike then strike n2 2 else run ();
    (* every allocated word, minor or direct-to-major *)
    let allocated () =
      let minor, promoted, major = Gc.counters () in
      minor +. major -. promoted
    in
    List.init repeat (fun _ ->
        (* a minor collection inside the window makes OCaml 5's
           Gc.counters over-report by most of a minor heap, so each
           measured site starts on an empty one *)
        Gc.minor ();
        let w0 = allocated () in
        run ();
        allocated () -. w0)
  in
  let close a b = Float.abs (a -. b) <= 16. in
  List.iter
    (fun engine ->
      let name = Sim.engine_to_string engine in
      let small = List.hd (site_words ~engine ~at:3000. 50) in
      let large = List.hd (site_words ~engine ~at:3000. 2000) in
      checkb
        (Printf.sprintf "%s: site words independent of circuit size (%.0f vs %.0f)" name small
           large)
        true (close small large);
      let small = List.hd (site_words ~first_strike:true ~engine ~at:3000. 50) in
      let large = List.hd (site_words ~first_strike:true ~engine ~at:3000. 2000) in
      checkb
        (Printf.sprintf "%s: first-strike site words independent of circuit size (%.0f vs %.0f)"
           name small large)
        true (close small large);
      match site_words ~repeat:64 ~engine ~at:7960. 2000 with
      | [] -> assert false
      | first :: rest ->
          List.iter
            (fun w ->
              checkb
                (Printf.sprintf "%s: cut site words stay flat (%.0f vs %.0f)" name first w)
                true (close first w))
            rest)
    [ Sim.Ddm; Sim.Classic_inertial ]

(* --- time-sliced cone runs: checkpoints of the baseline --- *)

module Stats = Halotis_engine.Stats
module Delay_model = Halotis_delay.Delay_model
module Classic = Halotis_engine.Classic
module Checkpoint_grid = Halotis_engine.Checkpoint_grid

(* Every instant the baseline processed an event at: the final
   crossings of each pin's driving signal at the pin's threshold. *)
let event_keys (cp : Compiled.t) (b : Iddm.result) =
  List.concat
    (List.init cp.Compiled.npins (fun p ->
         List.map fst
           (W.crossings_with_transitions
              b.Iddm.waveforms.(cp.Compiled.pin_fanin.(p))
              ~vt:cp.Compiled.pin_vt.(p))))

(* A finished cone run reduced to what a graft reads, copied out of
   the workspace before the next run overwrites it. *)
type cone_view = { cv_edges : D.edge list array; cv_stats : Stats.t; cv_hazard : bool }

let cone_view ws ~cone ~from injections =
  let r = Iddm.advance (Iddm.start_cone ~injections ws ~cone ~from) ~upto:infinity in
  {
    cv_edges =
      Array.map (fun sid -> D.edges r.Iddm.waveforms.(sid) ~vt:vdd2) cone.Compiled.cone_signals;
    cv_stats = Stats.copy r.Iddm.stats;
    cv_hazard = r.Iddm.replay_hazard;
  }

let iddm_strike ~baseline victim ~at =
  Inject.injection (Site.of_signal ~baseline victim ~at) (Inject.pulse ~width:150. ())

(* The struck and clean runs of a strike from checkpoint [from] against
   the same pair from the DC state: identical member edges, hazard
   flags, and struck-minus-clean counters.  [view ~from injections]
   runs one cone run to the end. *)
let same_from_checkpoint view ~from inj =
  let clean0 = view ~from:0 [] in
  let struck0 = view ~from:0 [ inj ] in
  let clean = view ~from [] in
  let struck = view ~from [ inj ] in
  clean.cv_edges = clean0.cv_edges
  && struck.cv_edges = struck0.cv_edges
  && clean.cv_hazard = clean0.cv_hazard
  && struck.cv_hazard = struck0.cv_hazard
  && Stats.diff struck.cv_stats clean.cv_stats = Stats.diff struck0.cv_stats clean0.cv_stats

(* Random circuits, seeds and cut points, some of them exactly at a
   baseline event key (an event there is not yet processed at the
   checkpoint), DDM and CDM: a cone run from any checkpoint at or
   before its strike, advanced to the end, equals the cone run from the
   DC state on every member edge and on the struck-minus-clean counter
   delta.  Checked only where the DC-state clean run reproduces the
   baseline, the condition {!Sim.Cone} grafts under. *)
let prop_checkpoint_equals_dc_start =
  QCheck.Test.make ~name:"cone run from a checkpoint == cone run from the DC state" ~count:25
    QCheck.(triple (int_range 10 35) (int_range 0 1000) (int_range 0 1000))
    (fun (gates, seed, cut_seed) ->
      let t_stop = 12_000. in
      let c, drives = Test_perf_equiv.workload ~gates ~seed in
      let delay_kind = if seed mod 2 = 0 then Delay_model.Ddm else Delay_model.Cdm in
      let cfg = Iddm.config ~delay_kind ~t_stop DL.tech in
      let cp = Compiled.compile DL.tech c in
      let baseline = Iddm.run ~compiled:cp cfg c ~drives in
      let keys = Array.of_list (event_keys cp baseline) in
      QCheck.assume (Array.length keys > 0 && not baseline.Iddm.replay_hazard);
      let rng = Prng.create ~seed:cut_seed in
      let key () = keys.(Prng.int rng ~bound:(Array.length keys)) in
      let cuts =
        List.init 6 (fun k -> if k mod 2 = 0 then key () else Prng.float rng ~bound:t_stop)
      in
      let ws = Iddm.cone_workspace ~grid:cuts ~compiled:cp ~baseline cfg c ~drives in
      let first = Array.fold_left Float.min infinity keys in
      let kept = List.sort_uniq Float.compare (List.filter (fun t -> t > first) cuts) in
      let victims = Array.of_list (Site.candidates c) in
      let checks =
        List.init 4 (fun k ->
            let victim = victims.(Prng.int rng ~bound:(Array.length victims)) in
            let cone = Compiled.fanout_cone ~marks:(Compiled.cone_marks cp) cp ~victim in
            let at =
              match k mod 3 with
              | 0 -> List.nth cuts (Prng.int rng ~bound:(List.length cuts))
              | 1 -> key ()
              | _ -> Prng.float rng ~bound:t_stop
            in
            let inj = iddm_strike ~baseline victim ~at in
            let clean0 = cone_view ws ~cone ~from:0 [] in
            let trusted =
              (not clean0.cv_hazard)
              && Array.for_all2
                   (fun sid es -> es = D.edges baseline.Iddm.waveforms.(sid) ~vt:vdd2)
                   cone.Compiled.cone_signals clean0.cv_edges
            in
            let latest = Checkpoint_grid.latest (Iddm.checkpoints ws) at in
            (not trusted)
            || (Iddm.checkpoints ws).(latest) <= at
               && List.for_all
                    (fun from -> same_from_checkpoint (cone_view ws ~cone) ~from inj)
                    [ latest; Prng.int rng ~bound:(latest + 1) ])
      in
      (* every kept cut became a checkpoint: the replay matched *)
      Array.length (Iddm.checkpoints ws) = 1 + List.length kept && List.for_all Fun.id checks)

(* The chain fixture of the same-instant test, with a checkpoint at
   exactly the strike instant, where a boundary event of the victim's
   cone also fires.  The checkpoint holds that event unprocessed, so
   the restored run pops the splice and the event at one instant — the
   splice first, by rank, as the full run does. *)
let test_checkpoint_at_strike_instant () =
  let c = Lazy.force chain in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  let cfg = Iddm.config ~t_stop:8000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = Iddm.run ~compiled:cp cfg c ~drives in
  let victim = sid c "out2" in
  let driver = Option.get (N.signal c victim).N.driver in
  let slot = cp.Compiled.g_base.(driver) in
  let at =
    W.last_crossing baseline.Iddm.waveforms.(cp.Compiled.pin_fanin.(slot))
      ~vt:cp.Compiled.pin_vt.(slot)
  in
  checkb "fixture has a boundary crossing" true (not (Float.is_nan at));
  let ws = Iddm.cone_workspace ~grid:[ at ] ~compiled:cp ~baseline cfg c ~drives in
  checki "checkpoint kept" 2 (Array.length (Iddm.checkpoints ws));
  checki "strike starts from it" 1 (Checkpoint_grid.latest (Iddm.checkpoints ws) at);
  checkb "at the strike instant" true ((Iddm.checkpoints ws).(1) = at);
  let cone = Compiled.fanout_cone ~marks:(Compiled.cone_marks cp) cp ~victim in
  let inj = iddm_strike ~baseline victim ~at in
  checkb "checkpoint run == DC-state run" true (same_from_checkpoint (cone_view ws ~cone) ~from:1 inj);
  let full =
    Iddm.advance (Iddm.start ~injections:[ inj ] ~compiled:cp cfg c ~drives) ~upto:infinity
  in
  checkb "struck edges == full injected run" true
    ((cone_view ws ~cone ~from:1 [ inj ]).cv_edges
    = Array.map (fun sid -> D.edges full.Iddm.waveforms.(sid) ~vt:vdd2) cone.Compiled.cone_signals)

(* Strikes before the first grid checkpoint start from the DC state,
   and still graft exactly. *)
let test_checkpoint_strike_before_grid () =
  let c, drives = Test_perf_equiv.workload ~gates:30 ~seed:42 in
  let cfg = Iddm.config ~t_stop:12_000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = Iddm.run ~compiled:cp cfg c ~drives in
  let ws = Iddm.cone_workspace ~compiled:cp ~baseline cfg c ~drives in
  checkb "the default grid was kept" true (Array.length (Iddm.checkpoints ws) > 1);
  let at = (Iddm.checkpoints ws).(1) -. 1. in
  checki "DC state" 0 (Checkpoint_grid.latest (Iddm.checkpoints ws) at);
  let spec = Sim.spec ~drives ~t_stop:12_000. ~tech:DL.tech c in
  let ctx = Option.get (Sim.Cone.create ~compiled:cp Sim.Ddm spec ~baseline:(Sim.run Sim.Ddm spec)) in
  let exact = ref 0 in
  List.iter
    (fun victim ->
      let inj = Inject.injection (Site.of_signal ~baseline victim ~at) (Inject.pulse ~width:150. ()) in
      match Sim.Cone.run_site ctx inj with
      | Sim.Cone.Fallback _ -> ()
      | Sim.Cone.Exact { edges; stats; _ } ->
          incr exact;
          let full = Sim.run Sim.Ddm { spec with Sim.sp_injections = [ inj ] } in
          checkb "edges identical" true (edges = Sim.edges full);
          checkb "stats identical" true (stats = Stats.copy full.Sim.rs_stats))
    (Site.candidates c);
  checkb "some site grafted (non-vacuous)" true (!exact > 0)

(* A pulse of 40 ps dies in the first inverter of a chain: its output
   ramp, appended on the rising input event, is annulled by the falling
   one.  A checkpoint between the two holds that segment beyond the
   final (empty) waveform, and restoring it must rebuild it, so strikes
   on that output from the checkpoint interact with it exactly as in
   the full run. *)
let test_checkpoint_annulled_segment () =
  let c = G.inverter_chain ~n:4 () in
  let input = sid c "in" in
  let drives = [ (input, Drive.of_levels ~slope:60. ~initial:false [ (1000., true); (1040., false) ]) ] in
  let cfg = Iddm.config ~t_stop:8000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = Iddm.run ~compiled:cp cfg c ~drives in
  checki "fixture annuls one transition" 1 baseline.Iddm.stats.Stats.transitions_annulled;
  let victim = sid c "out1" in
  checki "the annulled ramp leaves no segment" 0 (W.segment_count baseline.Iddm.waveforms.(victim));
  let between =
    match List.map fst (W.crossings_with_transitions baseline.Iddm.waveforms.(input) ~vt:vdd2) with
    | [ rise; fall ] -> (rise +. fall) /. 2.
    | _ -> Alcotest.fail "fixture: the input pulse crosses twice"
  in
  let ws = Iddm.cone_workspace ~grid:[ between ] ~compiled:cp ~baseline cfg c ~drives in
  checki "checkpoint kept" 2 (Array.length (Iddm.checkpoints ws));
  let cone = Compiled.fanout_cone ~marks:(Compiled.cone_marks cp) cp ~victim in
  let restored = Iddm.session_result (Iddm.start_cone ws ~cone ~from:1) in
  checki "the checkpoint holds the doomed segment" 1
    (W.segment_count restored.Iddm.waveforms.(victim));
  List.iter
    (fun at ->
      let inj = iddm_strike ~baseline victim ~at in
      checki "strike starts from the checkpoint" 1 (Checkpoint_grid.latest (Iddm.checkpoints ws) at);
      checkb
        (Printf.sprintf "checkpoint run == DC-state run (strike at %.0f)" at)
        true
        (same_from_checkpoint (cone_view ws ~cone) ~from:1 inj);
      let full =
    Iddm.advance (Iddm.start ~injections:[ inj ] ~compiled:cp cfg c ~drives) ~upto:infinity
  in
      checkb "struck edges == full injected run" true
        ((cone_view ws ~cone ~from:1 [ inj ]).cv_edges
        = Array.map (fun sid -> D.edges full.Iddm.waveforms.(sid) ~vt:vdd2) cone.Compiled.cone_signals))
    [ between; between +. 5.; 1500. ]

(* Only the DC checkpoint survives when the grid could mislead: a
   watchdog's window would miss the history before a checkpoint, and a
   replay that does not end on the baseline's counters is not the
   baseline's. *)
let test_checkpoint_grid_dropped () =
  let c, drives = Test_perf_equiv.workload ~gates:20 ~seed:5 in
  let cfg = Iddm.config ~t_stop:12_000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = Iddm.run ~compiled:cp cfg c ~drives in
  let count ?(cfg = cfg) baseline =
    Array.length (Iddm.checkpoints (Iddm.cone_workspace ~compiled:cp ~baseline cfg c ~drives))
  in
  checkb "the grid is kept for a matching baseline" true (count baseline > 1);
  checki "watchdog: DC state only" 1
    (count ~cfg:{ cfg with Iddm.watchdog = Some (Halotis_guard.Watchdog.config ()) } baseline);
  let other = Iddm.run ~compiled:cp (Iddm.config ~t_stop:1_000. DL.tech) c ~drives in
  checkb "fixture: a shorter run counts less" true
    (other.Iddm.stats <> baseline.Iddm.stats);
  checki "counter mismatch: DC state only" 1 (count { other with Iddm.waveforms = baseline.Iddm.waveforms })

(* --- the same checkpoints on the classic engine --- *)

let classic_view ws ~cone ~from injections =
  let r = Classic.advance (Classic.start_cone ~injections ws ~cone ~from) ~upto:infinity in
  {
    cv_edges = Array.map (Classic.cone_edges ws) cone.Compiled.cone_signals;
    cv_stats = Stats.copy r.Classic.stats;
    cv_hazard = r.Classic.replay_hazard;
  }

let classic_run ?(injections = []) cp cfg c ~drives =
  Classic.advance (Classic.start ~injections ~compiled:cp cfg c ~drives) ~upto:infinity

(* A classic strike: the victim forced to [level] at [at] and back 150
   ps later. *)
let classic_strike victim ~at ~level = (victim, [ (at, level); (at +. 150., not level) ])

(* The classic property: random circuits, plain or tie-rich stimuli
   ({!Test_perf_equiv.tie_workload}), and cut points of which some sit
   exactly on an instant the baseline commits edges at (a transaction
   there is not yet processed at the checkpoint).  A cone run from any
   checkpoint at or before its strike equals the run from the DC state
   on every member edge and on the struck-minus-clean counter delta,
   wherever the DC-state clean run reproduces the baseline. *)
let prop_classic_checkpoint_equals_dc_start =
  QCheck.Test.make ~name:"classic cone run from a checkpoint == cone run from the DC state"
    ~count:25
    QCheck.(quad (int_range 10 35) (int_range 0 1000) (int_range 0 1000) bool)
    (fun (gates, seed, cut_seed, ties) ->
      let t_stop = 12_000. in
      let c, drives =
        (if ties then Test_perf_equiv.tie_workload else Test_perf_equiv.workload) ~gates ~seed
      in
      let cfg = Classic.config ~t_stop DL.tech in
      let cp = Compiled.compile DL.tech c in
      let baseline = classic_run cp cfg c ~drives in
      let base_edges = Lazy.force baseline.Classic.edges in
      let instants = Test_perf_equiv.edge_instants base_edges in
      QCheck.assume (instants <> [||] && not baseline.Classic.replay_hazard);
      let rng = Prng.create ~seed:cut_seed in
      let instant () = instants.(Prng.int rng ~bound:(Array.length instants)) in
      let cuts =
        List.init 6 (fun k -> if k mod 2 = 0 then instant () else Prng.float rng ~bound:t_stop)
      in
      let ws = Classic.cone_workspace ~grid:cuts ~compiled:cp ~baseline cfg c ~drives in
      (* the replay's first queued entry: its earliest input switch *)
      let first =
        List.fold_left
          (fun t (_, (d : Drive.t)) ->
            List.fold_left (fun t tr -> Float.min t (fst (Classic.toggle tr))) t d.Drive.transitions)
          infinity drives
      in
      let kept = List.sort_uniq Float.compare (List.filter (fun t -> t > first) cuts) in
      let victims = Array.of_list (Site.candidates c) in
      let checks =
        List.init 4 (fun k ->
            let victim = victims.(Prng.int rng ~bound:(Array.length victims)) in
            let cone = Compiled.fanout_cone ~marks:(Compiled.cone_marks cp) cp ~victim in
            let at =
              match k mod 3 with
              | 0 -> List.nth cuts (Prng.int rng ~bound:(List.length cuts))
              | 1 -> instant ()
              | _ -> Prng.float rng ~bound:t_stop
            in
            let inj = classic_strike victim ~at ~level:(Prng.bool rng) in
            let view = classic_view ws ~cone in
            let clean0 = view ~from:0 [] in
            let trusted =
              (not clean0.cv_hazard)
              && Array.for_all2
                   (fun sid es -> es = base_edges.(sid))
                   cone.Compiled.cone_signals clean0.cv_edges
            in
            let latest = Checkpoint_grid.latest (Classic.checkpoints ws) at in
            (not trusted)
            || (Classic.checkpoints ws).(latest) <= at
               && List.for_all
                    (fun from -> same_from_checkpoint view ~from inj)
                    [ latest; Prng.int rng ~bound:(latest + 1) ])
      in
      (* every kept cut became a checkpoint: the replay matched *)
      Array.length (Classic.checkpoints ws) = 1 + List.length kept && List.for_all Fun.id checks)

(* The chain fixture with a checkpoint at exactly the instant out1, the
   boundary feed of out2's cone, commits its edge, and a strike on out2
   there.  The checkpoint holds out1's transaction unprocessed, so the
   restored run pops the strike's toggle and the replayed edge at one
   instant — the toggle first, by rank, as the full run does. *)
let test_classic_checkpoint_at_strike_instant () =
  let c = Lazy.force chain in
  let drives = [ (sid c "in", Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]) ] in
  let cfg = Classic.config ~t_stop:8000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = classic_run cp cfg c ~drives in
  let victim = sid c "out2" in
  let at =
    match (Lazy.force baseline.Classic.edges).(sid c "out1") with
    | e :: _ -> e.D.at
    | [] -> Alcotest.fail "fixture: out1 never switches"
  in
  let ws = Classic.cone_workspace ~grid:[ at ] ~compiled:cp ~baseline cfg c ~drives in
  checki "checkpoint kept" 2 (Array.length (Classic.checkpoints ws));
  checki "strike starts from it" 1 (Checkpoint_grid.latest (Classic.checkpoints ws) at);
  checkb "at the strike instant" true ((Classic.checkpoints ws).(1) = at);
  let cone = Compiled.fanout_cone ~marks:(Compiled.cone_marks cp) cp ~victim in
  let inj = classic_strike victim ~at ~level:(not baseline.Classic.initial_levels.(victim)) in
  checkb "checkpoint run == DC-state run" true
    (same_from_checkpoint (classic_view ws ~cone) ~from:1 inj);
  let full = Lazy.force (classic_run ~injections:[ inj ] cp cfg c ~drives).Classic.edges in
  checkb "struck edges == full injected run" true
    ((classic_view ws ~cone ~from:1 [ inj ]).cv_edges
    = Array.map (fun sid -> full.(sid)) cone.Compiled.cone_signals)

(* Strikes before the first grid checkpoint start from the DC state,
   and still graft exactly. *)
let test_classic_checkpoint_strike_before_grid () =
  let c, drives = Test_perf_equiv.workload ~gates:30 ~seed:42 in
  let cfg = Classic.config ~t_stop:12_000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = classic_run cp cfg c ~drives in
  let ws = Classic.cone_workspace ~compiled:cp ~baseline cfg c ~drives in
  checkb "the default grid was kept" true (Array.length (Classic.checkpoints ws) > 1);
  (* the ramp start whose toggle lands just before the first grid point *)
  let pulse = Inject.pulse ~width:150. () in
  let at = (Classic.checkpoints ws).(1) -. 1. -. (pulse.Inject.slope /. 2.) in
  checki "DC state" 0 (Checkpoint_grid.latest (Classic.checkpoints ws) at);
  let spec = Sim.spec ~drives ~t_stop:12_000. ~tech:DL.tech c in
  let ctx =
    Option.get
      (Sim.Cone.create ~compiled:cp Sim.Classic_inertial spec
         ~baseline:(Sim.run Sim.Classic_inertial spec))
  in
  let dbase = Iddm.run (Iddm.config ~t_stop:12_000. DL.tech) c ~drives in
  let exact = ref 0 in
  List.iter
    (fun victim ->
      let inj = Inject.injection (Site.of_signal ~baseline:dbase victim ~at) pulse in
      match Sim.Cone.run_site ctx inj with
      | Sim.Cone.Fallback r -> Alcotest.failf "unexpected fallback: %s" r
      | Sim.Cone.Exact { edges; stats; _ } ->
          incr exact;
          let full = Sim.run Sim.Classic_inertial { spec with Sim.sp_injections = [ inj ] } in
          checkb "edges identical" true (edges = Sim.edges full);
          checkb "stats identical" true (stats = Stats.copy full.Sim.rs_stats))
    (Site.candidates c);
  checkb "some site grafted (non-vacuous)" true (!exact > 0)

(* As on the IDDM engines, only the DC checkpoint survives under a
   watchdog or a replay that does not end on the baseline's counters. *)
let test_classic_checkpoint_grid_dropped () =
  let c, drives = Test_perf_equiv.workload ~gates:20 ~seed:5 in
  let cfg = Classic.config ~t_stop:12_000. DL.tech in
  let cp = Compiled.compile DL.tech c in
  let baseline = classic_run cp cfg c ~drives in
  let count ?(cfg = cfg) baseline =
    Array.length (Classic.checkpoints (Classic.cone_workspace ~compiled:cp ~baseline cfg c ~drives))
  in
  checkb "the grid is kept for a matching baseline" true (count baseline > 1);
  checki "watchdog: DC state only" 1
    (count ~cfg:{ cfg with Classic.watchdog = Some (Halotis_guard.Watchdog.config ()) } baseline);
  let other = classic_run cp (Classic.config ~t_stop:1_000. DL.tech) c ~drives in
  checkb "fixture: a shorter run counts less" true (other.Classic.stats <> baseline.Classic.stats);
  checki "counter mismatch: DC state only" 1 (count { other with Classic.edges = baseline.Classic.edges })

let test_engine_of_string () =
  checkb "ddm" true (Campaign.engine_of_string "ddm" = Some Campaign.Ddm);
  checkb "cdm" true (Campaign.engine_of_string "cdm" = Some Campaign.Cdm);
  checkb "classic" true
    (Campaign.engine_of_string "classic" = Some Campaign.Classic_inertial);
  checkb "unknown" true (Campaign.engine_of_string "spice" = None)

let tests =
  [
    ( "fault.inject",
      [
        Alcotest.test_case "pulse validation" `Quick test_pulse_validation;
        Alcotest.test_case "pulse transitions" `Quick test_pulse_transitions;
      ] );
    ( "fault.site",
      [
        Alcotest.test_case "candidates" `Quick test_site_candidates;
        Alcotest.test_case "polarity from baseline" `Quick test_site_polarity;
        Alcotest.test_case "sample determinism" `Quick test_site_sample_deterministic;
      ] );
    ( "fault.campaign",
      [
        QCheck_alcotest.to_alcotest prop_wide_pulse_propagates;
        QCheck_alcotest.to_alcotest prop_runt_never_propagates;
        Alcotest.test_case "fig1 threshold split" `Quick test_fig1_split;
        Alcotest.test_case "reports reproducible" `Quick test_campaign_reports_reproducible;
        Alcotest.test_case "counts consistent" `Quick test_campaign_counts_consistent;
        Alcotest.test_case "resume of a finished run" `Quick test_campaign_resume_of_finished_run;
        Alcotest.test_case "classic strike not preempted" `Quick
          test_classic_strike_not_preempted;
        Alcotest.test_case "engine names" `Quick test_engine_of_string;
      ] );
    ( "journal.fuzz",
      [
        QCheck_alcotest.to_alcotest prop_journal_load_never_raises;
        Alcotest.test_case "pruned journal refused" `Quick
          test_journal_pruned_v2_refused;
      ] );
    ( "fault.cone",
      [
        Alcotest.test_case "fanout cone structure" `Quick test_fanout_cone_structure;
        Alcotest.test_case "exact graft matches full run" `Quick
          test_cone_exact_matches_full;
        Alcotest.test_case "primary-input victim falls back" `Quick
          test_cone_pi_victim_falls_back;
        QCheck_alcotest.to_alcotest prop_incremental_equals_full;
        Alcotest.test_case "same-instant strike stays exact" `Quick
          test_cone_same_instant_strike_exact;
        Alcotest.test_case "classic boundary-edge tie grafts exactly" `Quick
          test_classic_cone_tie_exact;
        Alcotest.test_case "classic simultaneous inputs graft exactly" `Quick
          test_classic_cone_simultaneous_inputs_exact;
        QCheck_alcotest.to_alcotest prop_cone_reuse_equals_fresh;
        QCheck_alcotest.to_alcotest prop_classic_cone_ties_exact;
        Alcotest.test_case "site allocation independent of circuit size" `Quick
          test_cone_site_alloc_independent_of_circuit;
        QCheck_alcotest.to_alcotest prop_checkpoint_equals_dc_start;
        Alcotest.test_case "checkpoint at the strike instant" `Quick
          test_checkpoint_at_strike_instant;
        Alcotest.test_case "strike before the first grid checkpoint" `Quick
          test_checkpoint_strike_before_grid;
        Alcotest.test_case "segment annulled after a checkpoint" `Quick
          test_checkpoint_annulled_segment;
        Alcotest.test_case "checkpoint grid dropped" `Quick test_checkpoint_grid_dropped;
        QCheck_alcotest.to_alcotest prop_classic_checkpoint_equals_dc_start;
        Alcotest.test_case "classic checkpoint at the strike instant" `Quick
          test_classic_checkpoint_at_strike_instant;
        Alcotest.test_case "classic strike before the first grid checkpoint" `Quick
          test_classic_checkpoint_strike_before_grid;
        Alcotest.test_case "classic checkpoint grid dropped" `Quick
          test_classic_checkpoint_grid_dropped;
      ] );
  ]
