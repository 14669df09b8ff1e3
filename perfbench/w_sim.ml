(* sim-rand: one-shot simulation of a large random combinational circuit
   under staggered multi-toggle stimulus on every input, DDM then
   classic on identical inputs.  The event kernel does almost all the
   work; campaign, journal, supervision and serve do nothing here.

   The DDM kernel runs on the Compiled.t that set-up built, so its time
   is the kernel's alone.  The classic engine takes no precompiled
   circuit: its time includes the per-run set-up Classic.run does. *)

module N = Halotis_netlist.Netlist
module Hnl = Halotis_netlist.Hnl
module Stimfile = Halotis_stim.Stimfile
module Sim = Halotis_engine.Sim
module Stats = Halotis_engine.Stats
module Compiled = Halotis_engine.Compiled
module Iddm = Halotis_engine.Iddm
module Digital = Halotis_wave.Digital
module DM = Halotis_delay.Delay_model
module Loads = Halotis_delay.Loads

let tech = Halotis_tech.Default_lib.tech
let vt = Halotis_tech.Tech.vdd tech /. 2.
let setups = 11

(* Parse the generated text and compile: what a simulation pays before
   its first event. *)
let setup (inp : Gen.inputs) =
  let c =
    Trace.span "parse.hnl" (fun () ->
        Wl.ok_or_fail "hnl"
          (Result.map_error (fun e -> e.Hnl.message) (Hnl.parse_string inp.Gen.hnl)))
  in
  let drives =
    Trace.span "parse.stim" (fun () ->
        let st =
          Wl.ok_or_fail "hsv"
            (Result.map_error (fun e -> e.Stimfile.message) (Stimfile.parse_string inp.Gen.hsv))
        in
        Wl.ok_or_fail "bind" (Stimfile.bind st c))
  in
  let compiled = Trace.span "compile.compile" (fun () -> Compiled.compile tech c) in
  (c, drives, compiled)

(* One repetition simulates every circuit once per engine.  A random
   circuit's event count swings by about 6% with its seed whatever its
   size, so eight circuits per repetition average that out. *)
let run (ctx : Wl.ctx) =
  let ncircuits = 8 in
  let gates = if ctx.Wl.tiny then 100 else 2000 and inputs = 32 and toggles = 8 in
  let period = 2500. in
  let inps =
    List.init ncircuits (fun k ->
        Gen.circuit_and_stim ~name:(Printf.sprintf "simrand%d" k) ~gates ~inputs ~toggles ~period
          ~seed:(Gen.derive ctx.Wl.seed (50 + k)))
  in
  let setup_s = Wl.setups setups (fun () -> List.iter (fun i -> ignore (setup i)) inps) in
  let cases =
    List.map
      (fun inp ->
        let c, drives, compiled = setup inp in
        if !Trace.enabled then
          ignore
            (Trace.span "probe.price" (fun () ->
                 DM.Cache.create tech c ~loads:(Loads.of_netlist tech c)));
        (c, drives, compiled, inp.Gen.t_stop))
      inps
  in
  let outputs c edges = List.map (fun sid -> (N.signal_name c sid, edges.(sid))) (N.primary_outputs c) in
  (* One run of one engine on one circuit: (seconds in the kernel call,
     counters, output edges). *)
  let run_one engine (c, drives, compiled, t_stop) =
    match engine with
    | Sim.Ddm ->
        let cfg = Iddm.config ~t_stop tech in
        let r, t =
          Calib.time (fun () -> Trace.span "kernel.ddm" (fun () -> Iddm.run ~compiled cfg c ~drives))
        in
        let edges =
          Trace.span "digitize.ddm" (fun () ->
              Array.map (fun wf -> Digital.edges wf ~vt) r.Iddm.waveforms)
        in
        (t, r.Iddm.stats, outputs c edges)
    | _ ->
        let spec = Sim.spec ~drives ~t_stop ~tech c in
        let r, t =
          Calib.time (fun () -> Trace.span "kernel.classic" (fun () -> Sim.run engine spec))
        in
        (t, r.Sim.rs_stats, outputs c (Sim.edges r))
  in
  let t_stop = (List.hd inps).Gen.t_stop in
  (* Every repetition must reproduce the first one's output digests and
     counters exactly: the engines are deterministic. *)
  let first = Hashtbl.create 2 in
  let failed = ref 0 and attempted = ref 0 in
  (* one engine over every circuit: (seconds in the kernel, merged counters) *)
  let pass engine =
    let stats = Stats.create () and dt = ref 0. and digests = ref [] in
    Calib.tick ();
    List.iter
      (fun case ->
        let t, s, out = run_one engine case in
        dt := !dt +. t;
        Stats.merge stats s;
        digests := Meas.digest_value out :: !digests)
      cases;
    incr attempted;
    let sign = (Meas.digest_value !digests, Wl.stats_checks "" stats) in
    (match Hashtbl.find_opt first engine with
    | None -> Hashtbl.replace first engine (sign, stats)
    | Some (s0, _) -> if s0 <> sign then incr failed);
    (!dt, stats.Stats.events_processed)
  in
  let ddm = ref [] and classic = ref [] in
  Gc.compact ();
  let g0 = Gc.quick_stat () in
  Wl.repeat_for ctx.Wl.seconds (fun _ ->
      ddm := pass Sim.Ddm :: !ddm;
      classic := pass Sim.Classic_inertial :: !classic);
  let g1 = Gc.quick_stat () in
  let (ddm_digest, ddm_counters), ddm_stats = Hashtbl.find first Sim.Ddm in
  let (classic_digest, classic_counters), classic_stats = Hashtbl.find first Sim.Classic_inertial in
  let prefix p = List.map (fun (k, v) -> (p ^ k, v)) in
  let rates = List.map (fun (dt, ev) -> float_of_int ev /. dt) in
  let events = List.fold_left (fun acc (_, ev) -> acc + ev) 0 in
  let ddm_kernel = Meas.median (List.map fst !ddm)
  and classic_kernel = Meas.median (List.map fst !classic) in
  let compile_s = Wl.median_of "compile.compile" and price_s = Wl.median_of "probe.price" in
  let per_event kernel (s : Stats.t) = kernel *. 1e9 /. float_of_int (max 1 s.Stats.events_processed) in
  {
    Wl.params =
      [
        ("generator", "random_combinational");
        ("circuits", string_of_int ncircuits);
        ("gates", string_of_int gates);
        ("inputs", string_of_int inputs);
        ("toggles_per_input", string_of_int toggles);
        ("toggle_period_ps", Printf.sprintf "%g" period);
        ("t_stop_ps", Printf.sprintf "%g" t_stop);
      ];
    setup = setup_s;
    work = rates !ddm;
    ref_work = rates !classic;
    latency = Meas.hist_of (List.map (fun (dt, _) -> dt *. 1e6) !ddm);
    attempted = !attempted;
    failed = !failed;
    checks =
      [ ("ddm_output_digest", ddm_digest); ("classic_output_digest", classic_digest) ]
      @ prefix "ddm_" ddm_counters @ prefix "classic_" classic_counters;
    layer =
      [
        ("hnl_parse_s", Wl.median_of "parse.hnl");
        ("stim_parse_s", Wl.median_of "parse.stim");
        ("compile_s", compile_s);
        ("price_s", price_s);
        ("flatten_s", compile_s -. price_s);
        ("ddm_kernel_s", ddm_kernel);
        ("classic_kernel_s", classic_kernel);
        ("ddm_ns_per_event", per_event ddm_kernel ddm_stats);
        ("classic_ns_per_event", per_event classic_kernel classic_stats);
        ( "events_per_gate",
          float_of_int ddm_stats.Stats.events_processed /. float_of_int (ncircuits * gates) );
        ("digitize_s", Wl.median_of "digitize.ddm");
      ]
      @ Wl.stats_layer ddm_stats
      @ Wl.gc_layer g0 g1 ~events:(events !ddm + events !classic);
  }
