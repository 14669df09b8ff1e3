(* halotis — command-line front end.

   Subcommands:
     halotis lint     CIRCUIT.hnl [--stim STIM.hsv] [--liberty LIB]
                      [--format text|json] [--enable R] [--disable R]
                      [--severity R=LEVEL] [--strict] [--list-rules]
     halotis check    CIRCUIT.hnl            (thin alias for lint)
     halotis generate KIND [-o FILE] [--m N] [--n N] [--bits N] ...
     halotis simulate CIRCUIT.hnl --stim STIM.hsv [--model ddm|cdm|classic]
                      [--vcd FILE] [--diagram] [--t-stop PS]
     halotis compare  CIRCUIT.hnl --stim STIM.hsv [--t-stop PS]              *)

open Cmdliner

module N = Halotis_netlist.Netlist
module Hnl = Halotis_netlist.Hnl
module Check = Halotis_netlist.Check
module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Sim = Halotis_engine.Sim
module Digital = Halotis_wave.Digital
module Vcd = Halotis_wave.Vcd
module Asim = Halotis_analog.Sim
module Stimfile = Halotis_stim.Stimfile
module DL = Halotis_tech.Default_lib
module DM = Halotis_delay.Delay_model
module Figures = Halotis_report.Figures
module Table = Halotis_report.Table
module Sta = Halotis_sta.Sta
module Liberty = Halotis_liberty.Liberty
module Lib_fit = Halotis_liberty.Fit
module Lib_writer = Halotis_liberty.Writer
module Lint = Halotis_lint.Lint
module Rule = Halotis_lint.Rule
module Finding = Halotis_lint.Finding
module Json = Halotis_util.Json
module Site = Halotis_fault.Site
module Inject = Halotis_fault.Inject
module Campaign = Halotis_fault.Campaign
module Fault_report = Halotis_fault.Fault_report
module Driver = Halotis_fault.Driver
module Sampler = Halotis_vary.Sampler
module Sweep = Halotis_vary.Sweep
module Vary_report = Halotis_vary.Vary_report
module Param_overlay = Halotis_tech.Param_overlay
module Stats = Halotis_engine.Stats
module Stop = Halotis_guard.Stop
module Budget = Halotis_guard.Budget
module Server = Halotis_serve.Server
module Protocol = Halotis_serve.Protocol
module Watchdog = Halotis_guard.Watchdog
module Diag = Halotis_guard.Diag

let vt = DL.vdd /. 2.

(* --- shared loading helpers --- *)

(* All input failures funnel through Diag: one rendering (code,
   file:line, message, hint), no backtraces. *)

let die_diag d =
  prerr_endline ("halotis: " ^ Diag.to_string d);
  exit 1

let io_diag m = Diag.make ~code:"io" m

let load_circuit path =
  (* dispatch on extension: .bench is ISCAS-85, anything else is HNL *)
  if Filename.check_suffix path ".bench" then
    match Halotis_netlist.Iscas.parse_file path with
    | Ok c -> Ok c
    | Error e ->
        Error
          (Diag.make ~code:"iscas-parse" ~file:path ~line:e.Halotis_netlist.Iscas.line
             ~hint:"ISCAS-85 lines look like `G10 = NAND(G1, G3)`"
             e.Halotis_netlist.Iscas.message)
    | exception Sys_error m -> Error (io_diag m)
  else
    match Hnl.parse_file path with
    | Ok c -> Ok c
    | Error e ->
        Error
          (Diag.make ~code:"netlist-parse" ~file:path ~line:e.Hnl.line
             ~hint:"see doc/FORMATS.md for the HNL grammar" e.Hnl.message)
    | exception Sys_error m -> Error (io_diag m)

let load_stimfile path =
  match Stimfile.parse_file path with
  | Error e ->
      Error
        (Diag.make ~code:"stim-parse" ~file:path ~line:e.Stimfile.line
           ~hint:"stimulus lines look like `input a 0 1@2000 0@4000`"
           e.Stimfile.message)
  | exception Sys_error m -> Error (io_diag m)
  | Ok stim -> Ok stim

let load_liberty path =
  match Liberty.parse_file path with
  | Ok lib -> Ok lib
  | Error e -> Error (Diag.make ~code:"liberty-parse" ~file:path e.Liberty.message)
  | exception Sys_error m -> Error (io_diag m)

let load_tech = function
  | None -> DL.tech
  | Some path -> (
      match load_liberty path with
      | Ok lib ->
          let tech, qualities =
            Lib_fit.to_tech ~base:DL.tech ~kind_of_cell:Lib_fit.default_kind_of_cell lib
          in
          List.iter
            (fun (kind, q) ->
              Printf.eprintf "liberty: fitted %s (delay rmse %.2f ps)\n"
                (Halotis_logic.Gate_kind.name kind)
                q.Lib_fit.delay_rmse)
            qualities;
          tech
      | Error d -> die_diag d)

let or_die = function Ok v -> v | Error d -> die_diag d

let bind_stim stim c =
  match Stimfile.bind stim c with
  | Ok drives -> drives
  | Error m ->
      die_diag
        (Diag.make ~code:"stim-bind"
           ~hint:"stimulus entries must name primary inputs of the circuit" m)

(* Default simulation horizon: last stimulus change + slack for
   propagation. *)
let horizon_of_drives drives t_stop =
  match t_stop with
  | Some t -> t
  | None ->
      let last =
        List.fold_left
          (fun acc (_, (d : Halotis_engine.Drive.t)) ->
            List.fold_left
              (fun acc (tr : Halotis_wave.Transition.t) ->
                Float.max acc tr.Halotis_wave.Transition.start)
              acc d.Halotis_engine.Drive.transitions)
          0. drives
      in
      last +. 10_000.

(* --- lint / check --- *)

(* Pre-flight pass wired into simulate/compare: engine-relevant rules
   only, warnings and errors, on stderr, never fatal (an actual cycle
   still fails inside the engine's own topological sort).

   [suggest_watchdog]: when an NL008 finding flags an oscillation-risk
   feedback loop and the user has not armed a watchdog, suggest a trip
   threshold sized to the largest flagged SCC. *)
let preflight ?stim ?(suggest_watchdog = false) tech c =
  let findings = Lint.preflight ?stim ~tech c in
  List.iter (fun f -> Format.eprintf "preflight: %a@." Finding.pp f) findings;
  if suggest_watchdog then begin
    let scc_gates =
      List.fold_left
        (fun acc (f : Finding.t) ->
          match (f.Finding.rule, f.Finding.location) with
          | "NL008", Finding.Gates names -> max acc (List.length names)
          | _ -> acc)
        0 findings
    in
    if scc_gates > 0 then
      Format.eprintf
        "preflight: hint: this design risks oscillation — consider --watchdog \
         --watchdog-threshold %d (sized to the largest flagged feedback loop, %d gates)@."
        (Watchdog.suggest_threshold ~scc_gates ())
        scc_gates
  end

let run_lint path stim_path liberty_path format strict disables enables severities
    fanout_threshold list_rules =
  let json = format = `Json in
  if list_rules then begin
    (if json then print_endline (Json.to_string (Lint.rules_json ()))
     else
       List.iter
         (fun (r : Rule.t) ->
           Printf.printf "%-6s %-8s %-8s %s\n" r.Rule.id
             (Finding.domain_to_string r.Rule.domain)
             (Finding.severity_to_string r.Rule.severity)
             r.Rule.doc)
         Rule.all);
    0
  end
  else begin
    let path =
      match path with
      | Some p -> p
      | None ->
          prerr_endline "halotis: lint needs a CIRCUIT argument (or --list-rules)";
          (* cmdliner's cli_error code, so 1 stays reserved for
             "warnings under --strict" *)
          exit 124
    in
    let c = or_die (load_circuit path) in
    let liberty = Option.map (fun p -> or_die (load_liberty p)) liberty_path in
    let tech =
      match liberty with
      | None -> DL.tech
      | Some lib ->
          fst (Lib_fit.to_tech ~base:DL.tech ~kind_of_cell:Lib_fit.default_kind_of_cell lib)
    in
    let stim = Option.map (fun p -> or_die (load_stimfile p)) stim_path in
    let overrides =
      List.map (fun id -> (id, `Off)) disables
      @ List.map (fun id -> (id, `On)) enables
      @ List.map (fun (id, level) -> (id, `Severity level)) severities
    in
    let config = { Rule.default_config with Rule.overrides; fanout_threshold } in
    let findings = Lint.run ~config ~tech ?liberty ?stim c in
    (* Human-readable findings go to stderr; stdout carries only the
       JSON document so `--format json` stays machine-parseable. *)
    if json then print_endline (Json.to_string (Lint.report_to_json findings))
    else Format.eprintf "%a" Lint.pp_text findings;
    Format.eprintf "lint: %s: %s@." (N.name c) (Lint.summary findings);
    Lint.exit_code ~strict findings
  end

(* `check` stays as a thin alias for lint at default configuration; its
   structural summary moves to stderr so stdout stays clean. *)
let run_check path =
  let c = or_die (load_circuit path) in
  Format.eprintf "%a@." N.pp_summary c;
  (match Check.depth c with
  | Some d -> Format.eprintf "logic depth: %d@." d
  | None -> Format.eprintf "logic depth: n/a (cyclic)@.");
  Format.eprintf "max fanout: %d@." (Check.max_fanout c);
  run_lint (Some path) None None `Text false [] [] [] Rule.default_config.Rule.fanout_threshold
    false

(* --- generate --- *)

let run_generate kind m n bits gates inputs seed output format =
  let circuit =
    match kind with
    | "mult" -> (G.array_multiplier ~m ~n ()).G.mult_circuit
    | "mult-nand" -> (G.array_multiplier ~nand_only:true ~m ~n ()).G.mult_circuit
    | "wallace" -> (G.wallace_multiplier ~m ~n ()).G.mult_circuit
    | "rca" -> (G.ripple_carry_adder ~bits ()).G.adder_circuit
    | "chain" -> G.inverter_chain ~n ()
    | "fig1" -> (G.fig1_circuit ()).G.circuit
    | "latch" -> (G.sr_latch ()).G.latch_circuit
    | "latch-glitch" -> (G.latch_glitch_circuit ()).G.lg_circuit
    | "c17" -> Lazy.force Halotis_netlist.Iscas.c17
    | "random" -> G.random_combinational ~gates ~inputs ~seed ()
    | other ->
        prerr_endline
          ("halotis: unknown generator " ^ other
         ^ " (expected mult, mult-nand, wallace, rca, chain, fig1, latch, latch-glitch, \
            random)");
        exit 1
  in
  let render () =
    match format with
    | `Hnl -> Ok (Hnl.to_string circuit)
    | `Bench -> Halotis_netlist.Iscas.to_string circuit
  in
  (match render () with
  | Error m ->
      prerr_endline ("halotis: " ^ m);
      exit 1
  | Ok text -> (
      match output with
      | Some path ->
          let oc = open_out path in
          output_string oc text;
          close_out oc;
          Format.printf "wrote %a to %s@." N.pp_summary circuit path
      | None -> print_string text));
  0

(* --- simulate --- *)

let print_diagram c edges_of t1 =
  let lanes =
    List.map
      (fun sid ->
        let name = N.signal_name c sid in
        let initial, edges = edges_of sid in
        Figures.lane_of_edges ~label:name ~initial edges)
      (N.primary_outputs c)
  in
  print_string (Figures.timing_diagram ~width:100 ~t0:0. ~t1 lanes)

let print_power_report tech c (r : Iddm.result) =
  let module Act = Halotis_power.Activity in
  let module Energy = Halotis_power.Energy in
  let module Glitch = Halotis_power.Glitch in
  let act = Act.of_iddm r in
  let energy = Energy.of_report tech c act in
  Printf.printf "activity: %d transitions, %d complete pulses\n" act.Act.total_transitions
    act.Act.full_pulses;
  Printf.printf "dynamic energy: %.2f pJ\n" (energy.Energy.total_fj /. 1000.);
  print_endline "busiest signals:";
  List.iter (fun (name, n) -> Printf.printf "  %-14s %d\n" name n) (Act.busiest act ~n:5);
  print_endline "pulse-width histogram:";
  Format.printf "%a"
    Glitch.pp_histogram
    (Glitch.pulse_width_histogram ~vt:(DL.vdd /. 2.) r.Iddm.waveforms)

(* The JSON result document of `simulate --json`, engine-independent
   via the Sim facade: stats, the stop reason and the partial flag are
   what scripts poll to detect a guardrail trip; event_rate_top is the
   watchdog's event-rate view, present whether or not one tripped. *)
let simulate_json c ~model_name ~horizon (r : Sim.result) =
  Json.Obj
    [
      ("tool", Json.Str "halotis-simulate");
      ("circuit", Json.Str (N.name c));
      ("model", Json.Str model_name);
      ("t_stop", Json.Num horizon);
      ("partial", Json.Bool (not (Stop.completed r.Sim.rs_stopped_by)));
      ("stopped_by", Stop.to_json r.Sim.rs_stopped_by);
      ("stats", Stats.to_json r.Sim.rs_stats);
      ( "frozen",
        Json.Arr
          (List.map
             (fun (sid, at) ->
               Json.Obj
                 [ ("signal", Json.Str (N.signal_name c sid)); ("at", Json.Num at) ])
             r.Sim.rs_frozen) );
      ( "outputs",
        Json.Arr
          (List.map
             (fun (name, edges) ->
               Json.Obj
                 [
                   ("signal", Json.Str name);
                   ("edges", Json.Num (float_of_int (List.length edges)));
                 ])
             (Sim.output_edges r)) );
      ( "event_rate_top",
        Json.Arr
          (List.map
             (fun (name, nedges) ->
               Json.Obj
                 [
                   ("signal", Json.Str name);
                   ("edges", Json.Num (float_of_int nedges));
                 ])
             (Sim.top_offenders r)) );
    ]

let partial_comment stopped =
  if Stop.completed stopped then None
  else Some ("PARTIAL dump: run stopped by " ^ Stop.to_string stopped)

let warn_stop stopped =
  if not (Stop.completed stopped) then
    Format.eprintf "halotis: simulation stopped early: %a@." Stop.pp stopped

let run_simulate path stim_path model t_stop vcd_path diagram liberty report max_events
    max_wall max_queue max_sim_time watchdog degrade wd_window wd_threshold json
    checkpoint_path =
  let tech = load_tech liberty in
  let c = or_die (load_circuit path) in
  let stim = or_die (load_stimfile stim_path) in
  preflight ~stim ~suggest_watchdog:(not (watchdog || degrade)) tech c;
  let drives = bind_stim stim c in
  let horizon = horizon_of_drives drives t_stop in
  let budget =
    Budget.make ?max_events ?max_wall_s:max_wall ?max_queue ?max_sim_time ()
  in
  let wd_config =
    if watchdog || degrade then
      Some
        (Watchdog.config ~window:wd_window ~threshold:wd_threshold
           ~mode:(if degrade then Watchdog.Degrade else Watchdog.Halt)
           ())
    else None
  in
  match model with
  | `Engine engine ->
      let r =
        Sim.run engine
          (Sim.spec ~drives ~t_stop:horizon ~budget ?watchdog:wd_config ~tech c)
      in
      let model_name = Sim.engine_display_name engine in
      warn_stop r.Sim.rs_stopped_by;
      if json then print_endline (Json.to_string (simulate_json c ~model_name ~horizon r))
      else begin
        Format.printf "%s: %a@." model_name Halotis_engine.Stats.pp r.Sim.rs_stats;
        List.iter
          (fun (name, edges) ->
            Format.printf "%s: %d edges%s@." name (List.length edges)
              (if edges = [] then ""
               else
                 ": "
                 ^ String.concat ", "
                     (List.map (Format.asprintf "%a" Digital.pp_edge) edges)))
          (Sim.output_edges r);
        if diagram then begin
          let edges = Sim.edges r and initials = Sim.initial_levels r in
          print_diagram c (fun sid -> (initials.(sid), edges.(sid))) horizon
        end;
        if report then
          match Sim.iddm r with
          | Some ir -> print_power_report tech c ir
          | None ->
              prerr_endline "halotis: --report needs a waveform engine (ddm or cdm); ignored"
      end;
      (match vcd_path with
      | Some p ->
          Vcd.write_file ?comment:(partial_comment r.Sim.rs_stopped_by) p (Sim.vcd_dumps r);
          Printf.eprintf "vcd written to %s\n" p
      | None -> ());
      (match checkpoint_path with
      | Some p when not (Stop.completed r.Sim.rs_stopped_by) -> (
          match Sim.iddm r with
          | Some _ ->
              Halotis_engine.Checkpoint.write p (Halotis_engine.Checkpoint.of_result r);
              Printf.eprintf "checkpoint written to %s (stopped by %s)\n" p
                (Stop.to_string r.Sim.rs_stopped_by)
          | None ->
              prerr_endline
                "halotis: --checkpoint needs a waveform engine (ddm or cdm); ignored")
      | Some _ | None -> ());
      Stop.exit_code r.Sim.rs_stopped_by
  | `Analog ->
      let r = Asim.run (Asim.config ~t_stop:horizon tech) c ~drives in
      List.iter
        (fun sid ->
          let name = N.signal_name c sid in
          Format.printf "%s: %d edges@." name (List.length (Asim.edges r name)))
        (N.primary_outputs c);
      if diagram then
        print_diagram c
          (fun sid ->
            let tr = r.Asim.traces.(sid) in
            (Asim.value_at tr 0. > vt, Asim.crossings tr ~vt))
          horizon;
      0

(* --- compare --- *)

let run_compare path stim_path t_stop =
  let c = or_die (load_circuit path) in
  let stim = or_die (load_stimfile stim_path) in
  preflight ~stim DL.tech c;
  let drives = bind_stim stim c in
  let horizon = match t_stop with Some t -> t | None -> 25_000. in
  let spec = Sim.spec ~drives ~t_stop:horizon ~tech:DL.tech c in
  let rd = Sim.run Sim.Ddm spec in
  let rc = Sim.run Sim.Cdm spec in
  let rcl = Sim.run Sim.Classic_inertial spec in
  let ra = Asim.run (Asim.config ~t_stop:horizon DL.tech) c ~drives in
  let rows =
    List.map
      (fun sid ->
        let name = N.signal_name c sid in
        [
          name;
          string_of_int (List.length (Asim.edges ra name));
          string_of_int (List.length (Sim.edges rd).(sid));
          string_of_int (List.length (Sim.edges rc).(sid));
          string_of_int (List.length (Sim.edges rcl).(sid));
        ])
      (N.primary_outputs c)
  in
  Table.print
    (Table.make ~header:[ "output"; "analog"; "ddm"; "cdm"; "classic" ] ~rows);
  Format.printf "ddm: %a@." Halotis_engine.Stats.pp rd.Sim.rs_stats;
  Format.printf "cdm: %a@." Halotis_engine.Stats.pp rc.Sim.rs_stats;
  0

(* --- faults and vary: shells over Halotis_fault.Driver --- *)

let usage_diag ?hint m = die_diag (Diag.make ~code:"usage" ?hint m)

(* Lossless float round-trip for the worker argv: cmdliner's float conv
   reads hex floats back bit-exactly, which keeps a worker's campaign
   fingerprint (journal header) byte-identical to the parent's. *)
let farg = Printf.sprintf "%h"

(* Chaos injection for [--range] workers (see [Driver.chaos]), read
   from the environment so the supervisor tests, the CI chaos smoke job
   and bench/exp_supervise can crash and hang workers. *)
let chaos_of_env () =
  let geti v = Option.bind (Sys.getenv_opt v) int_of_string_opt in
  {
    Driver.kill = geti "HALOTIS_CHAOS_KILL";
    hang = geti "HALOTIS_CHAOS_HANG";
    poison = geti "HALOTIS_CHAOS_POISON";
    tokens = Sys.getenv_opt "HALOTIS_CHAOS_TOKENS";
  }

(* The flags [faults] and [vary] share. *)
type campaign_args = {
  ca_circuit : string;
  ca_stim : string;
  ca_engine : Campaign.engine;
  ca_n : int;
  ca_seed : int;
  ca_width : float;
  ca_slope : float;
  ca_t_stop : float option;
  ca_liberty : string option;
  ca_format : [ `Text | `Json ];
  ca_journal : string option;
  ca_resume : string option;
  ca_jobs : int;
  ca_range : (int * int) option;
}

let campaign_log cmd m = Printf.eprintf "%s: %s\n%!" cmd m

(* What both commands derive from the shared flags: technology, circuit,
   bound drives, horizon, SET pulse, resolved --jobs and journal mode. *)
let campaign_setup ~cmd a =
  let tech = load_tech a.ca_liberty in
  let c = or_die (load_circuit a.ca_circuit) in
  let stim = or_die (load_stimfile a.ca_stim) in
  let jobs = Driver.resolve_jobs ~log:(campaign_log cmd) a.ca_jobs in
  let is_worker = a.ca_range <> None in
  if is_worker && jobs > 1 then usage_diag "--range and --jobs are mutually exclusive";
  (* A worker's stderr should carry verdict progress, not N copies of
     the same preflight report the parent already printed. *)
  if not is_worker then preflight ~stim tech c;
  let drives = bind_stim stim c in
  let horizon = horizon_of_drives drives a.ca_t_stop in
  let pulse =
    try Inject.pulse ~slope:a.ca_slope ~width:a.ca_width ()
    with Invalid_argument m -> die_diag (Diag.make ~code:"invalid-input" m)
  in
  let journal =
    match (a.ca_journal, a.ca_resume) with
    | Some _, Some _ ->
        usage_diag ~hint:"--resume already appends new verdicts to the journals it loads"
          "--journal and --resume are mutually exclusive"
    | Some p, None -> Some (Driver.Fresh p)
    | None, Some p -> Some (Driver.Resume p)
    | None, None -> None
  in
  (tech, c, drives, horizon, pulse, jobs, journal)

(* The argv of a [--range] worker: the campaign-defining flags, the
   command's own [extra] ones, and the chunk it owns. *)
let worker_argv ~cmd a ~horizon extra ~range:(lo, hi) ~journal =
  [ Sys.executable_name; cmd; a.ca_circuit; "--stim"; a.ca_stim ]
  @ [ "--engine"; Campaign.engine_to_string a.ca_engine ]
  @ [ "-n"; string_of_int a.ca_n; "--seed"; string_of_int a.ca_seed ]
  @ [ "--width"; farg a.ca_width; "--slope"; farg a.ca_slope ]
  @ [ "--t-stop"; farg horizon ]
  @ (match a.ca_liberty with Some p -> [ "--liberty"; p ] | None -> [])
  @ extra
  @ [ "--range"; Printf.sprintf "%d:%d" lo hi; "--journal"; journal ]

(* Runs [plan] as a [--range] worker (no report: [None]) or through the
   driver, serially or supervised. *)
let drive_campaign ~cmd a ~jobs ~journal ~horizon ~extra ?quarantine ?chunk_sites
    ?worker_timeout ?max_retries ?poison_after plan tech c ~drives =
  let log = campaign_log cmd in
  match a.ca_range with
  | Some range ->
      (* the supervisor always passes --journal, and a retried worker
         resumes it by itself *)
      let journal =
        match journal with
        | None -> usage_diag "a --range worker needs --journal"
        | Some (Driver.Resume _) ->
            usage_diag "--range workers resume their own --journal automatically"
        | Some (Driver.Fresh p) -> p
      in
      Driver.run_worker ~log ~chaos:(chaos_of_env ()) plan ~range ~journal tech c ~drives;
      None
  | None ->
      Some
        (Driver.run ~log ?journal ?quarantine ?chunk_sites ?worker_timeout ?max_retries
           ?poison_after ~jobs
           ~worker_argv:(worker_argv ~cmd a ~horizon extra)
           plan tech c ~drives)

let run_faults a exhaustive grid vcd_dir limit_sites site_max_events worker_timeout
    max_retries chunk_sites poison_after incremental =
  let tech, c, drives, horizon, pulse, jobs, journal = campaign_setup ~cmd:"faults" a in
  let engine = a.ca_engine in
  let site_budget = Budget.make ?max_events:site_max_events () in
  let cfg =
    Campaign.config ~engine ~seed:a.ca_seed ~n:a.ca_n ~pulse ~t_stop:horizon ~site_budget
      ~incremental ?limit:limit_sites ()
  in
  let sites =
    if not exhaustive then None
    else
      let baseline =
        match Sim.iddm (Sim.run Sim.Ddm (Sim.spec ~drives ~t_stop:horizon ~tech c)) with
        | Some r -> r
        | None -> assert false
      in
      Some (Site.exhaustive ~baseline ~times:(Site.grid ~t0:0. ~t1:horizon ~points:grid))
  in
  let extra =
    (if exhaustive then [ "--exhaustive"; "--grid"; string_of_int grid ] else [])
    @ (match site_max_events with
      | Some e -> [ "--site-max-events"; string_of_int e ]
      | None -> [])
    @ [ "--incremental"; (if incremental then "on" else "off") ]
  in
  match
    drive_campaign ~cmd:"faults" a ~jobs ~journal ~horizon ~extra ~chunk_sites
      ~worker_timeout ~max_retries ~poison_after
      (Driver.plan [ { cfg with Campaign.sites } ])
      tech c ~drives
  with
  | None -> 0
  | Some result ->
      let campaign = result.Driver.campaigns.(0) in
      (* Summary to stderr so stdout carries only the report document. *)
      Format.eprintf "faults: %s: %s@." (N.name c) (Fault_report.summary campaign);
      if not campaign.Campaign.cam_complete then begin
        (* Parked early: no report — the verdicts are durable in the
           journal and the campaign resumes from there. *)
        Format.eprintf "faults: campaign parked after %d of %d sites%s@."
          (List.length campaign.Campaign.cam_verdicts)
          campaign.Campaign.cam_sites_total
          (match journal with
          | Some (Driver.Fresh p | Driver.Resume p) ->
              Printf.sprintf " — continue with --resume %s" p
          | None -> " (no --journal: progress was not saved)");
        exit 3
      end;
      (match campaign.Campaign.cam_quarantined with
      | [] -> ()
      | qs ->
          Printf.eprintf "faults: DEGRADED: %d quarantined site%s: %s\n%!"
            (List.length qs)
            (if List.length qs = 1 then "" else "s")
            (String.concat ", "
               (List.map
                  (fun (i, site) ->
                    Printf.sprintf "%d (%s)" i (Format.asprintf "%a" (Site.pp c) site))
                  qs)));
      (match a.ca_format with
      | `Json -> print_endline (Fault_report.to_string campaign)
      | `Text -> print_string (Fault_report.to_text campaign));
      (match vcd_dir with
      | Some _ when engine = Campaign.Classic_inertial ->
          prerr_endline "halotis: --vcd-dir needs a waveform engine (ddm or cdm); ignored"
      | Some dir ->
          List.iter
            (Printf.eprintf "vcd written to %s\n")
            (Fault_report.write_vcds ~dir tech ~drives campaign)
      | None -> ());
      result.Driver.exit_code

let run_vary a samples sigma_device sigma_chip sigma_lot stress_hours ttf =
  let tech, c, drives, horizon, pulse, jobs, journal = campaign_setup ~cmd:"vary" a in
  let sigmas =
    try Sampler.sigmas ~device:sigma_device ~chip:sigma_chip ~lot:sigma_lot ()
    with Invalid_argument m -> usage_diag m
  in
  if samples < 0 then usage_diag "--samples must be non-negative";
  if stress_hours < 0. then usage_diag "--stress-hours must be non-negative";
  let engine = a.ca_engine and seed = a.ca_seed in
  let cfg = Campaign.config ~engine ~seed ~n:a.ca_n ~pulse ~t_stop:horizon () in
  (* The nominal (empty overlay) campaign fixes the shared strike list
     every sampled corner replays, and is the flip reference of the
     report.  It is deterministic, so workers re-derive the identical
     list without any coordination. *)
  let t_nominal = Unix.gettimeofday () in
  let nominal = Campaign.run cfg tech c ~drives in
  let nominal_s = Unix.gettimeofday () -. t_nominal in
  let sites =
    List.map (fun (v : Campaign.verdict) -> v.Campaign.vd_site) nominal.Campaign.cam_verdicts
  in
  let overlay_of k = Sampler.sample ~stress_hours sigmas ~seed ~index:k c in
  (* one part per sample, so global index [k * nsites + i] is strike i
     of sample k, and one supervisor chunk per sample *)
  let plan =
    Driver.plan ~sampled:true
      (List.init samples (fun k ->
           { cfg with Campaign.overlay = overlay_of k; sites = Some sites }))
  in
  let extra =
    [ "--samples"; string_of_int samples ]
    @ [ "--sigma-device"; farg sigma_device; "--sigma-chip"; farg sigma_chip ]
    @ [ "--sigma-lot"; farg sigma_lot; "--stress-hours"; farg stress_hours ]
  in
  (* A worker replays the nominal campaign and its sample's baseline
     before its first verdict moves the heartbeat cursor, so the stall
     timeout must outlast that silent start even when all [jobs] workers
     share a single core. *)
  let worker_timeout = Float.max 30. (2. *. float jobs *. nominal_s) in
  match
    drive_campaign ~cmd:"vary" a ~jobs ~journal ~horizon ~extra ~quarantine:Driver.Fail
      ~chunk_sites:(max 1 (List.length sites)) ~worker_timeout plan tech c ~drives
  with
  | None -> 0
  | Some result ->
      let campaigns = result.Driver.campaigns in
      Array.iteri
        (fun k cam ->
          Printf.eprintf "vary: sample %d/%d: %s\n%!" (k + 1) samples
            (Fault_report.summary cam);
          match cam.Campaign.cam_quarantined with
          | [] -> ()
          | (i, site) :: _ ->
              die_diag
                (Diag.make ~code:"site-quarantined"
                   ~hint:
                     (match journal with
                     | Some (Driver.Fresh base | Driver.Resume base) ->
                         Printf.sprintf
                           "vary has no degraded report: --jobs 1 --resume %s reproduces \
                            the crash in-process and re-simulates only the failing samples"
                           base
                     | None ->
                         "vary has no degraded report: rerun with --jobs 1 to reproduce \
                          the crash in-process")
                   (Printf.sprintf
                      "sample %d site %d (%s) crashed or hung its worker repeatedly and \
                       was quarantined"
                      k i
                      (Format.asprintf "%a" (Site.pp c) site))))
        campaigns;
      (* TTF sweep: age the whole circuit along the stress-hours ladder
         until the reference pulse — the first strike the fresh circuit
         electrically masked — becomes an observable soft error. *)
      let ttf_result =
        if not ttf then None
        else
          let ref_verdict =
            List.find_opt
              (fun (v : Campaign.verdict) ->
                v.Campaign.vd_outcome = Campaign.Electrically_masked)
              nominal.Campaign.cam_verdicts
          in
          match ref_verdict with
          | None ->
              prerr_endline
                "vary: --ttf: the nominal campaign has no electrically masked site to \
                 use as a reference pulse; skipping the sweep";
              None
          | Some v ->
              Some (Sweep.run ~probe:(Sweep.aging_probe cfg tech c ~drives v.Campaign.vd_site) ())
      in
      let report =
        Vary_report.make ~circuit:(N.name c)
          ~engine:(Campaign.engine_to_string engine)
          ~seed ~sigmas ~stress_hours ~nominal:nominal.Campaign.cam_verdicts
          ~samples:
            (List.init samples (fun k ->
                 ( k,
                   Param_overlay.fingerprint (overlay_of k),
                   campaigns.(k).Campaign.cam_verdicts )))
          ?ttf:ttf_result ()
      in
      (match a.ca_format with
      | `Json -> print_endline (Vary_report.to_string report)
      | `Text -> print_string (Vary_report.to_text report));
      0

(* --- export-verilog --- *)

let run_export path output =
  let c = or_die (load_circuit path) in
  let text = Halotis_netlist.Verilog.to_string c in
  (match output with
  | Some p ->
      let oc = open_out p in
      output_string oc text;
      close_out oc;
      Printf.printf "wrote %s\n" p
  | None -> print_string text);
  0

(* --- report-timing --- *)

let run_timing path input_slope liberty period =
  let tech = load_tech liberty in
  let c = or_die (load_circuit path) in
  let t = Sta.analyze ~input_slope tech c in
  Format.printf "%a@." N.pp_summary c;
  Printf.printf "worst arrival: %.1f ps%s\n" (Sta.worst t)
    (match Sta.worst_output t with
    | Some s -> " at output " ^ N.signal_name c s
    | None -> "");
  print_endline "critical path:";
  Format.printf "%a" (Sta.pp_path c) (Sta.critical_path t);
  print_endline "per-output arrivals:";
  List.iter
    (fun sid ->
      let a = Sta.arrival t sid in
      let v = Float.max a.Sta.rise_at a.Sta.fall_at in
      if v > neg_infinity then
        Printf.printf "  %-12s %.1f ps\n" (N.signal_name c sid) v
      else Printf.printf "  %-12s (static)\n" (N.signal_name c sid))
    (N.primary_outputs c);
  (match period with
  | None -> ()
  | Some p ->
      Printf.printf "slack at a %.0f ps period (min period %.1f ps):\n" p
        (Sta.min_period t);
      List.iter
        (fun (sid, sl) ->
          Printf.printf "  %-12s %8.1f ps%s\n" (N.signal_name c sid) sl
            (if sl < 0. then "  VIOLATED" else ""))
        (Sta.slack t ~period:p));
  0

(* --- explain --- *)

let run_explain path stim_path signal_name at t_stop =
  let c = or_die (load_circuit path) in
  let stim = or_die (load_stimfile stim_path) in
  let drives = bind_stim stim c in
  let sid =
    match N.find_signal c signal_name with
    | Some s -> s
    | None ->
        prerr_endline ("halotis: unknown signal " ^ signal_name);
        exit 1
  in
  let horizon = match t_stop with Some t -> t | None -> 100_000. in
  let r =
    (* causality tracing is a DDM-engine feature, but the run is still
       configured through the one facade *)
    match
      Sim.iddm (Sim.run Sim.Ddm (Sim.spec ~drives ~t_stop:horizon ~trace:true ~tech:DL.tech c))
    with
    | Some r -> r
    | None -> assert false
  in
  let at =
    match at with
    | Some t -> t
    | None -> (
        (* default: the signal's last edge *)
        match List.rev (Digital.edges r.Iddm.waveforms.(sid) ~vt) with
        | e :: _ -> e.Digital.at
        | [] -> horizon)
  in
  let chain = Iddm.explain r ~signal:sid ~at in
  if chain = [] then begin
    Printf.printf "%s has no traced activity at %.1f ps\n" signal_name at;
    0
  end
  else begin
    Printf.printf "causality chain for %s at %.1f ps (input side first):\n" signal_name at;
    Format.printf "%a" (Iddm.pp_explanation r) chain;
    0
  end

(* --- hazards --- *)

let run_hazards path input_slope =
  let c = or_die (load_circuit path) in
  let module Hazard = Halotis_sta.Hazard in
  let h = Hazard.analyze ~input_slope DL.tech c in
  let sites = Hazard.sites h in
  let timing = Hazard.timing_sites h in
  Format.printf "%a@." N.pp_summary c;
  Printf.printf "potential glitch sites: %d of %d gates (%d timing, %d function-only)\n"
    (List.length sites) (N.gate_count c) (List.length timing)
    (List.length sites - List.length timing);
  Format.printf "%a" (Hazard.pp_sites c) sites;
  0

(* --- survival --- *)

let run_survival path width slope engine liberty format =
  let tech = load_tech liberty in
  let c = or_die (load_circuit path) in
  let module Survival = Halotis_sta.Survival in
  let kind = match engine with `Ddm -> DM.Ddm | `Cdm -> DM.Cdm in
  let s = Survival.analyze ~width ~slope ~kind tech c in
  (match format with
  | `Json -> print_endline (Json.to_string ~indent:true (Survival.to_json s))
  | `Text -> Format.printf "%a" Survival.pp_text s);
  0

(* --- equiv --- *)

let run_equiv path_a path_b =
  let a = or_die (load_circuit path_a) in
  let b = or_die (load_circuit path_b) in
  let module Equiv = Halotis_netlist.Equiv in
  let verdict = Equiv.check a b in
  Format.printf "%a@." Equiv.pp_verdict verdict;
  match verdict with Equiv.Equivalent -> 0 | Equiv.Counterexample _ | Equiv.Incompatible _ -> 1

(* --- diff-vcd --- *)

let run_diff_vcd path_a path_b tolerance =
  let load path =
    match Halotis_wave.Vcd_reader.parse_file path with
    | Ok t -> t
    | Error e ->
        Format.eprintf "halotis: %s: %a@." path Halotis_wave.Vcd_reader.pp_error e;
        exit 1
    | exception Sys_error m ->
        prerr_endline ("halotis: " ^ m);
        exit 1
  in
  let a = load path_a and b = load path_b in
  let module Vr = Halotis_wave.Vcd_reader in
  let module Cmp = Halotis_wave.Compare in
  let reports =
    List.filter_map
      (fun (sa : Vr.signal) ->
        match Vr.find b sa.Vr.rd_name with
        | Some sb ->
            Some
              ( sa.Vr.rd_name,
                Cmp.edges ~tolerance ~reference:sa.Vr.rd_edges ~candidate:sb.Vr.rd_edges )
        | None ->
            Printf.printf "%-16s only in %s\n" sa.Vr.rd_name path_a;
            None)
      a.Vr.signals
  in
  List.iter
    (fun (sb : Vr.signal) ->
      if Vr.find a sb.Vr.rd_name = None then
        Printf.printf "%-16s only in %s\n" sb.Vr.rd_name path_b)
    b.Vr.signals;
  List.iter
    (fun (name, r) -> Format.printf "%-16s %a@." name Cmp.pp r)
    reports;
  let merged = Cmp.merge (List.map snd reports) in
  Format.printf "overall: %a (agreement %.2f)@." Cmp.pp merged (Cmp.agreement merged);
  if Cmp.perfect merged then 0 else 1

(* --- characterize --- *)

let run_characterize output =
  let kinds = Halotis_logic.Gate_kind.all_basic in
  (match output with
  | Some p ->
      Lib_writer.write_file p DL.tech ~kinds;
      Printf.printf "wrote %s (%d cells)\n" p (List.length kinds)
  | None -> print_string (Lib_writer.of_tech DL.tech ~kinds));
  0

(* --- cmdliner wiring --- *)

let circuit_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"CIRCUIT" ~doc:"HNL netlist file.")

let stim_arg =
  Arg.(
    required
    & opt (some file) None
    & info [ "stim"; "s" ] ~docv:"STIM" ~doc:"HSV stimulus file.")

let liberty_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "liberty" ] ~docv:"LIB"
        ~doc:"Liberty file: fit the delay model coefficients from its NLDM tables.")

let t_stop_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "t-stop" ] ~docv:"PS" ~doc:"Simulation horizon in picoseconds.")

let rule_id_conv =
  let parse s =
    match Rule.find s with
    | Some r -> Ok r.Rule.id
    | None -> Error (`Msg (Printf.sprintf "unknown rule %S (see --list-rules)" s))
  in
  Arg.conv (parse, Format.pp_print_string)

let severity_override_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg "expected RULE=LEVEL, e.g. NL005=error")
    | Some i -> (
        let id = String.sub s 0 i in
        let level = String.sub s (i + 1) (String.length s - i - 1) in
        match (Rule.find id, Finding.severity_of_string (String.lowercase_ascii level)) with
        | Some r, Some sev -> Ok (r.Rule.id, sev)
        | None, _ -> Error (`Msg (Printf.sprintf "unknown rule %S (see --list-rules)" id))
        | _, None ->
            Error (`Msg (Printf.sprintf "unknown level %S (error, warning or info)" level)))
  in
  let print fmt (id, sev) =
    Format.fprintf fmt "%s=%s" id (Finding.severity_to_string sev)
  in
  Arg.conv (parse, print)

let lint_cmd =
  let doc = "rule-based static analysis of a netlist, its stimuli and libraries" in
  let circuit =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"CIRCUIT" ~doc:"HNL or ISCAS netlist file.")
  in
  let stim =
    Arg.(
      value
      & opt (some file) None
      & info [ "stim"; "s" ] ~docv:"STIM" ~doc:"Also lint this HSV stimulus file.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"text (findings on stderr) or json (report document on stdout).")
  in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Exit 1 when warnings remain.")
  in
  let disables =
    Arg.(
      value
      & opt_all rule_id_conv []
      & info [ "disable" ] ~docv:"RULE" ~doc:"Disable a rule (repeatable).")
  in
  let enables =
    Arg.(
      value
      & opt_all rule_id_conv []
      & info [ "enable" ] ~docv:"RULE"
          ~doc:"Re-enable a rule after $(b,--disable) (repeatable).")
  in
  let severities =
    Arg.(
      value
      & opt_all severity_override_conv []
      & info [ "severity" ] ~docv:"RULE=LEVEL"
          ~doc:"Override a rule's severity, e.g. NL005=error (repeatable).")
  in
  let fanout_threshold =
    Arg.(
      value
      & opt int Rule.default_config.Rule.fanout_threshold
      & info [ "fanout-threshold" ] ~docv:"N" ~doc:"Load-pin budget for NL005.")
  in
  let list_rules =
    Arg.(value & flag & info [ "list-rules" ] ~doc:"Print the rule registry and exit.")
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const run_lint $ circuit $ stim $ liberty_arg $ format $ strict $ disables $ enables
      $ severities $ fanout_threshold $ list_rules)

let check_cmd =
  let doc = "structural checks on an HNL netlist (alias for lint with default rules)" in
  Cmd.v (Cmd.info "check" ~doc) Term.(const run_check $ circuit_arg)

let generate_cmd =
  let doc = "emit a generated circuit as HNL" in
  let kind =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"KIND"
          ~doc:"mult, mult-nand, wallace, rca, chain, fig1, latch, latch-glitch or random.")
  in
  let m = Arg.(value & opt int 4 & info [ "m" ] ~docv:"N" ~doc:"Multiplicand bits.") in
  let n =
    Arg.(value & opt int 4 & info [ "n" ] ~docv:"N" ~doc:"Multiplier bits / chain length.")
  in
  let bits = Arg.(value & opt int 4 & info [ "bits" ] ~docv:"N" ~doc:"Adder width.") in
  let gates = Arg.(value & opt int 100 & info [ "gates" ] ~docv:"N" ~doc:"Random gates.") in
  let inputs = Arg.(value & opt int 8 & info [ "inputs" ] ~docv:"N" ~doc:"Random inputs.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.") in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("hnl", `Hnl); ("bench", `Bench) ]) `Hnl
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: hnl (default) or bench.")
  in
  Cmd.v (Cmd.info "generate" ~doc)
    Term.(const run_generate $ kind $ m $ n $ bits $ gates $ inputs $ seed $ output $ format)

let model_arg =
  let model_conv =
    Arg.enum
      [
        ("ddm", `Engine Sim.Ddm);
        ("cdm", `Engine Sim.Cdm);
        ("classic", `Engine Sim.Classic_inertial);
        ("analog", `Analog);
      ]
  in
  Arg.(
    value
    & opt model_conv (`Engine Sim.Ddm)
    & info [ "model"; "m" ] ~docv:"MODEL" ~doc:"ddm (default), cdm, classic or analog.")

(* Guardrail flags shared in spirit with doc/robustness.md: budgets
   stop a run with exit code 3, the watchdog with 4. *)
let max_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:"Stop after N processed events (exit 3; outputs are marked partial).")

let max_wall_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-wall" ] ~docv:"SECONDS" ~doc:"Wall-clock budget for the run (exit 3).")

let max_queue_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-queue" ] ~docv:"N" ~doc:"Event-queue occupancy cap (exit 3).")

let max_sim_time_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "max-sim-time" ] ~docv:"PS"
        ~doc:"Simulated-time budget, independent of --t-stop (exit 3).")

let simulate_cmd =
  let doc = "simulate a netlist under a stimulus file" in
  let vcd =
    Arg.(value & opt (some string) None & info [ "vcd" ] ~docv:"FILE" ~doc:"Write a VCD dump.")
  in
  let diagram =
    Arg.(value & flag & info [ "diagram"; "d" ] ~doc:"Print an ASCII timing diagram.")
  in
  let report =
    Arg.(
      value & flag
      & info [ "report" ]
          ~doc:"Print switching activity, energy and pulse-width statistics (ddm/cdm only).")
  in
  let watchdog =
    Arg.(
      value & flag
      & info [ "watchdog" ]
          ~doc:"Halt when a signal oscillates (exit 4, names the feedback loop).")
  in
  let degrade =
    Arg.(
      value & flag
      & info [ "degrade" ]
          ~doc:
            "Watchdog in degrade mode: freeze the oscillating feedback loop to x and \
             keep simulating the rest (implies --watchdog).")
  in
  let wd_window =
    Arg.(
      value
      & opt float Watchdog.default_window
      & info [ "watchdog-window" ] ~docv:"PS"
          ~doc:"Sliding simulated-time window for the oscillation watchdog.")
  in
  let wd_threshold =
    Arg.(
      value
      & opt int Watchdog.default_threshold
      & info [ "watchdog-threshold" ] ~docv:"N"
          ~doc:"Events per window on one signal that count as oscillation.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Emit a JSON result document on stdout (stats, stop reason, partial flag) \
             instead of the text summary (ddm/cdm/classic).")
  in
  let checkpoint =
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint" ] ~docv:"FILE"
          ~doc:
            "When a guardrail stops the run early, serialize the committed waveform \
             prefix (every signal, lossless hex floats) plus the stop reason to \
             $(docv) — the durable record of a budget-stopped run (ddm/cdm only).")
  in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      const run_simulate $ circuit_arg $ stim_arg $ model_arg $ t_stop_arg $ vcd $ diagram
      $ liberty_arg $ report $ max_events_arg $ max_wall_arg $ max_queue_arg
      $ max_sim_time_arg $ watchdog $ degrade $ wd_window $ wd_threshold $ json
      $ checkpoint)

(* Worker mode of [faults] and [vary]: the supervisor spawns every
   worker with [--range LO:HI --journal FILE]. *)
let range_arg =
  Arg.(
    value
    & opt (some (pair ~sep:':' int int)) None
    & info [ "range" ] ~docv:"LO:HI"
        ~doc:
          "Internal (spawned by the campaign supervisor): run as a worker owning \
           global site indices [LO, HI), journaling each verdict fsynced with a \
           heartbeat cursor into $(b,--journal); an existing chunk journal is \
           resumed automatically.  No report is rendered.")

(* The flags [faults] and [vary] share; only their help texts differ. *)
let campaign_term ~n_doc ~seed_doc ~jobs_doc =
  let engine =
    Arg.(
      value
      & opt
          (enum
             [
               ("ddm", Campaign.Ddm);
               ("cdm", Campaign.Cdm);
               ("classic", Campaign.Classic_inertial);
             ])
          Campaign.Ddm
      & info [ "engine" ] ~docv:"ENGINE" ~doc:"ddm (default), cdm or classic.")
  in
  let n = Arg.(value & opt int 100 & info [ "n"; "injections" ] ~docv:"N" ~doc:n_doc) in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:seed_doc) in
  let width =
    Arg.(
      value & opt float 150.
      & info [ "width" ] ~docv:"PS" ~doc:"SET pulse width in picoseconds.")
  in
  let slope =
    Arg.(
      value & opt float 100.
      & info [ "slope" ] ~docv:"PS" ~doc:"SET ramp slope in picoseconds.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"text or json report on stdout.")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:
            "Journal every verdict (fsynced) so an interrupted campaign can be \
             resumed with $(b,--resume): $(b,faults) journals to FILE, $(b,vary) \
             to FILE.sK for sample K (the faults format, overlay-fingerprinted).")
  in
  (* not Arg.file: under --jobs only the chunk journals FILE.ID may
     exist, and the serial path wants the journal loader's own diagnostics
     for a missing file *)
  let resume =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"FILE"
          ~doc:
            "Resume the journals of an interrupted campaign: completed verdicts \
             are kept, new ones keep appending, and the final report is \
             byte-identical to an uninterrupted run.  Resume in the mode the run \
             was started in: serially the $(b,--journal) files, with $(b,--jobs) \
             N > 1 the per-chunk journals FILE.0, FILE.1, ...; a FILE holding \
             only the other mode's journals is rejected.")
  in
  let jobs = Arg.(value & opt int 1 & info [ "jobs"; "j" ] ~docv:"N" ~doc:jobs_doc) in
  let make ca_circuit ca_stim ca_engine ca_n ca_seed ca_width ca_slope ca_t_stop ca_liberty
      ca_format ca_journal ca_resume ca_jobs ca_range =
    { ca_circuit; ca_stim; ca_engine; ca_n; ca_seed; ca_width; ca_slope; ca_t_stop;
      ca_liberty; ca_format; ca_journal; ca_resume; ca_jobs; ca_range }
  in
  Term.(
    const make $ circuit_arg $ stim_arg $ engine $ n $ seed $ width $ slope $ t_stop_arg
    $ liberty_arg $ format $ journal $ resume $ jobs $ range_arg)

let faults_cmd =
  let doc = "SET fault-injection campaign: soft-error robustness analysis" in
  let campaign =
    campaign_term ~n_doc:"Number of PRNG-sampled injections." ~seed_doc:"Campaign PRNG seed."
      ~jobs_doc:
        "Run the campaign across N supervised worker processes: the site \
         enumeration is split into chunks dispatched to a bounded pool, each \
         worker's journal progress is heartbeated, stalled or crashed workers are \
         killed and their chunks re-queued with exponential backoff, and sites \
         that repeatedly crash or hang workers are quarantined (the campaign then \
         completes $(i,degraded), exit code 5, with the quarantined sites listed \
         in the report).  The merged report is byte-identical to $(b,--jobs) 1 \
         with the same seed.  N=0 auto-detects the available cores (getconf, \
         falling back to /proc/cpuinfo).  Default: 1 (serial, in-process)."
  in
  let exhaustive =
    Arg.(
      value & flag
      & info [ "exhaustive" ]
          ~doc:"Strike every gate output on a time grid instead of sampling.")
  in
  let grid =
    Arg.(
      value & opt int 8
      & info [ "grid" ] ~docv:"N" ~doc:"Grid points per node under $(b,--exhaustive).")
  in
  let vcd_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd-dir" ] ~docv:"DIR"
          ~doc:"Re-run each propagated strike and dump its waveforms as VCD here.")
  in
  let limit_sites =
    Arg.(
      value
      & opt (some int) None
      & info [ "limit-sites" ] ~docv:"K"
          ~doc:
            "Simulate at most K fresh sites this invocation, then park (exit 3, no \
             report); combine with $(b,--journal)/$(b,--resume) to chunk a long \
             campaign.")
  in
  let site_max_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "site-max-events" ] ~docv:"N"
          ~doc:
            "Per-injection event budget: a run that trips it gets a timed-out \
             verdict instead of stalling the campaign.")
  in
  let worker_timeout =
    Arg.(
      value & opt float 30.
      & info [ "worker-timeout" ] ~docv:"S"
          ~doc:
            "Supervision: seconds a worker may go without journal progress \
             before it is killed and its chunk re-queued.  Default: 30.")
  in
  let max_retries =
    Arg.(
      value & opt int 10
      & info [ "max-retries" ] ~docv:"N"
          ~doc:
            "Supervision: per-chunk failure cap; a chunk that crashes or \
             stalls more than N times aborts the campaign.  Quarantining a \
             poison site resets the chunk's count.  Default: 10.")
  in
  let chunk_sites =
    Arg.(
      value & opt int 0
      & info [ "chunk-sites" ] ~docv:"K"
          ~doc:
            "Supervision: sites per work-queue chunk.  0 (default) picks \
             about four chunks per worker.")
  in
  let poison_after =
    Arg.(
      value & opt int 3
      & info [ "poison-after" ] ~docv:"N"
          ~doc:
            "Supervision: quarantine a site after it is the blame site of N \
             consecutive failures of its chunk.  Default: 3.")
  in
  let incremental =
    Arg.(
      value
      & opt (enum [ ("on", true); ("off", false) ]) true
      & info [ "incremental" ] ~docv:"on|off"
          ~doc:
            "Incremental cone re-simulation: answer each site by re-simulating \
             only the strike's static fanout cone against the baseline, falling \
             back to a full per-site re-run whenever the shortcut cannot be \
             proven exact.  Reports and journals are byte-identical either way; \
             only the wall clock changes.  Default: on.")
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(
      const run_faults $ campaign $ exhaustive $ grid $ vcd_dir $ limit_sites
      $ site_max_events $ worker_timeout $ max_retries $ chunk_sites $ poison_after
      $ incremental)

let vary_cmd =
  let doc = "Monte-Carlo variation & aging campaigns over sampled parameter corners" in
  let campaign =
    campaign_term ~n_doc:"PRNG-sampled strikes per sample (the shared strike list)."
      ~seed_doc:"PRNG seed shared by the strike list and the corner sampler."
      ~jobs_doc:
        "Run samples across N supervised worker processes, one sample per \
         work-queue chunk, with the $(b,faults) supervisor's heartbeat, \
         stall-kill (after the larger of 30 s and 2N nominal passes without \
         progress) and retry; a strike that repeatedly crashes or hangs its \
         worker is quarantined and fails the run.  The report is byte-identical \
         to $(b,--jobs) 1 with the same seed.  N=0 auto-detects the available \
         cores.  Default: 1 (serial)."
  in
  let samples =
    Arg.(
      value & opt int 20
      & info [ "samples" ] ~docv:"K"
          ~doc:"Monte-Carlo samples (circuit instances) to draw.  Default: 20.")
  in
  let sigma_device =
    Arg.(
      value & opt float 0.
      & info [ "sigma-device" ] ~docv:"S"
          ~doc:"Per-gate (device) relative parameter spread, e.g. 0.05 for 5 %.")
  in
  let sigma_chip =
    Arg.(
      value & opt float 0.
      & info [ "sigma-chip" ] ~docv:"S"
          ~doc:"Per-sample (chip) relative parameter spread.")
  in
  let sigma_lot =
    Arg.(
      value & opt float 0.
      & info [ "sigma-lot" ] ~docv:"S"
          ~doc:"Per-lot relative parameter spread (8 consecutive samples share a lot).")
  in
  let stress_hours =
    Arg.(
      value & opt float 0.
      & info [ "stress-hours" ] ~docv:"H"
          ~doc:"Virtual aging stress applied to every sample's corner.")
  in
  let ttf =
    Arg.(
      value & flag
      & info [ "ttf" ]
          ~doc:
            "Time-to-failure sweep: age the circuit along a geometric \
             stress-hours ladder until the first electrically masked reference \
             pulse starts propagating.")
  in
  Cmd.v (Cmd.info "vary" ~doc)
    Term.(
      const run_vary $ campaign $ samples $ sigma_device $ sigma_chip $ sigma_lot
      $ stress_hours $ ttf)

let export_cmd =
  let doc = "export a netlist as structural Verilog" in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "export-verilog" ~doc) Term.(const run_export $ circuit_arg $ output)

let timing_cmd =
  let doc = "static timing analysis (conventional delay model)" in
  let slope =
    Arg.(
      value & opt float 100.
      & info [ "input-slope" ] ~docv:"PS" ~doc:"Input ramp slope in picoseconds.")
  in
  let period =
    Arg.(
      value
      & opt (some float) None
      & info [ "period" ] ~docv:"PS" ~doc:"Report per-output slack against this clock period.")
  in
  Cmd.v (Cmd.info "report-timing" ~doc)
    Term.(const run_timing $ circuit_arg $ slope $ liberty_arg $ period)

let explain_cmd =
  let doc = "trace the event chain behind a signal's activity" in
  let signal =
    Arg.(
      required
      & opt (some string) None
      & info [ "signal" ] ~docv:"NAME" ~doc:"Signal to explain.")
  in
  let at =
    Arg.(
      value
      & opt (some float) None
      & info [ "at" ] ~docv:"PS" ~doc:"Instant of interest (default: the signal's last edge).")
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(const run_explain $ circuit_arg $ stim_arg $ signal $ at $ t_stop_arg)

let hazards_cmd =
  let doc = "static hazard (glitch-site) analysis" in
  let slope =
    Arg.(
      value & opt float 100.
      & info [ "input-slope" ] ~docv:"PS" ~doc:"Input ramp slope in picoseconds.")
  in
  Cmd.v (Cmd.info "hazards" ~doc) Term.(const run_hazards $ circuit_arg $ slope)

let survival_cmd =
  let doc = "static SET pulse-survival map (vulnerability bounds per gate and output)" in
  let width =
    Arg.(
      value & opt float 150.
      & info [ "width" ] ~docv:"PS" ~doc:"Canonical SET pulse width in picoseconds.")
  in
  let slope =
    Arg.(
      value & opt float 100.
      & info [ "slope" ] ~docv:"PS" ~doc:"Canonical SET ramp slope in picoseconds.")
  in
  let engine =
    Arg.(
      value
      & opt (enum [ ("ddm", `Ddm); ("cdm", `Cdm) ]) `Ddm
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:"Delay model to bound the pulse transfer with: ddm (default) or cdm.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"text or json map on stdout.")
  in
  Cmd.v (Cmd.info "survival" ~doc)
    Term.(const run_survival $ circuit_arg $ width $ slope $ engine $ liberty_arg $ format)

let equiv_cmd =
  let doc = "exhaustive combinational equivalence check" in
  let file position docv =
    Arg.(required & pos position (some file) None & info [] ~docv ~doc:"Netlist file.")
  in
  Cmd.v (Cmd.info "equiv" ~doc) Term.(const run_equiv $ file 0 "A" $ file 1 "B")

let diff_vcd_cmd =
  let doc = "compare two VCD dumps edge-for-edge" in
  let file position docv =
    Arg.(required & pos position (some file) None & info [] ~docv ~doc:"VCD file.")
  in
  let tolerance =
    Arg.(
      value & opt float 100.
      & info [ "tolerance" ] ~docv:"PS" ~doc:"Edge matching window in picoseconds.")
  in
  Cmd.v (Cmd.info "diff-vcd" ~doc)
    Term.(const run_diff_vcd $ file 0 "A" $ file 1 "B" $ tolerance)

let characterize_cmd =
  let doc = "export the built-in technology as a Liberty NLDM library" in
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output file.")
  in
  Cmd.v (Cmd.info "characterize" ~doc) Term.(const run_characterize $ output)

let compare_cmd =
  let doc = "run all four engines and compare output activity" in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run_compare $ circuit_arg $ stim_arg $ t_stop_arg)

(* --- serve / client --- *)

let serve_config cache_size max_events max_transitions no_watchdog liberty =
  let d = Server.default_config () in
  (* 0 means "no limit" for both budgets; absent keeps the server default *)
  let cap dflt = function Some 0 -> None | Some n -> Some n | None -> dflt in
  {
    Server.cf_cache_size = cache_size;
    cf_max_events = cap d.Server.cf_max_events max_events;
    cf_max_transitions = cap d.Server.cf_max_transitions max_transitions;
    cf_watchdog = not no_watchdog;
    cf_tech = load_tech liberty;
    cf_overlay = d.Server.cf_overlay;
  }

let run_serve socket cache_size max_events max_transitions no_watchdog liberty =
  let server =
    Server.create (serve_config cache_size max_events max_transitions no_watchdog liberty)
  in
  (match socket with
  | Some path ->
      Printf.eprintf "halotis: serving on %s\n%!" path;
      Server.serve_socket server ~path
  | None -> Server.serve_stdio server);
  0

(* The client re-encodes each script request canonically (ids assigned
   1, 2, 3, ... in script order), so transcripts are deterministic no
   matter how the script file is formatted. *)
let client_lines script_path =
  let text =
    try
      let ic = open_in_bin script_path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with Sys_error m -> die_diag (io_diag m)
  in
  let requests =
    List.filter
      (fun l ->
        let l = String.trim l in
        l <> "" && l.[0] <> '#')
      (String.split_on_char '\n' text)
  in
  List.mapi
    (fun i line ->
      let id = i + 1 in
      match Json.parse line with
      | Error m ->
          die_diag (Diag.make ~code:"parse" ~file:script_path (Printf.sprintf "request %d: %s" id m))
      | Ok j -> (
          match Protocol.request_of_json j with
          | Error m ->
              die_diag
                (Diag.make ~code:"bad-request" ~file:script_path
                   (Printf.sprintf "request %d: %s" id m))
          | Ok req -> Protocol.request_to_line ~id req))
    requests

let run_client script_path socket cache_size max_events max_transitions no_watchdog
    liberty =
  let lines = client_lines script_path in
  match socket with
  | None ->
      (* in-process server: same dispatch path as the daemon, no I/O *)
      let server =
        Server.create
          (serve_config cache_size max_events max_transitions no_watchdog liberty)
      in
      let conn = Server.connect server in
      List.iter (fun line -> print_endline (Server.handle_line conn line)) lines;
      0
  | Some path ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.connect fd (Unix.ADDR_UNIX path)
       with Unix.Unix_error (e, _, _) ->
         die_diag
           (Diag.make ~code:"io"
              (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))));
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let rc =
        try
          List.iter
            (fun line ->
              output_string oc line;
              output_char oc '\n';
              flush oc;
              print_endline (input_line ic))
            lines;
          0
        with End_of_file ->
          prerr_endline "halotis: server closed the connection";
          1
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      rc

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path (default: stdio).")

let serve_opts =
  let cache_size =
    Arg.(
      value & opt int 8
      & info [ "cache-size" ] ~docv:"N" ~doc:"Compiled-circuit LRU cache capacity.")
  in
  let max_events =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-events" ] ~docv:"N"
          ~doc:"Default per-session event budget (0: unlimited).")
  in
  let max_transitions =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-transitions" ] ~docv:"N"
          ~doc:"Default per-session transition (memory) budget (0: unlimited).")
  in
  let no_watchdog =
    Arg.(
      value & flag
      & info [ "no-watchdog" ] ~doc:"Disable the per-session oscillation watchdog default.")
  in
  (cache_size, max_events, max_transitions, no_watchdog)

let serve_cmd =
  let doc = "persistent simulation service (newline-delimited JSON protocol)" in
  let cache_size, max_events, max_transitions, no_watchdog = serve_opts in
  Cmd.v
    (Cmd.info "serve" ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Speaks the protocol documented in doc/serve.md: one JSON request per \
              line with sequential ids, starting with a $(b,hello); sessions load a \
              circuit once through the compiled-circuit cache and then advance, \
              change inputs, inject SET pulses and query waveforms interactively.";
         ])
    Term.(
      const run_serve $ socket_arg $ cache_size $ max_events $ max_transitions
      $ no_watchdog $ liberty_arg)

let client_cmd =
  let doc = "script a serve session from a request file" in
  let cache_size, max_events, max_transitions, no_watchdog = serve_opts in
  let script =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"SCRIPT"
          ~doc:
            "File of JSON requests, one per line ($(b,#) comments and blank lines \
             ignored); ids are assigned sequentially in file order.")
  in
  Cmd.v
    (Cmd.info "client" ~doc
       ~man:
         [
           `S Manpage.s_description;
           `P
             "Replays SCRIPT against a running daemon ($(b,--socket)) or an \
              in-process server (default), printing one response line per request — \
              a deterministic transcript suitable for golden tests.";
         ])
    Term.(
      const run_client $ script $ socket_arg $ cache_size $ max_events
      $ max_transitions $ no_watchdog $ liberty_arg)

let main_cmd =
  let doc = "HALOTIS: logic timing simulation with the inertial and degradation delay model" in
  Cmd.group (Cmd.info "halotis" ~version:"1.0.0" ~doc)
    [
      lint_cmd;
      check_cmd;
      generate_cmd;
      simulate_cmd;
      compare_cmd;
      serve_cmd;
      client_cmd;
      faults_cmd;
      vary_cmd;
      timing_cmd;
      survival_cmd;
      export_cmd;
      characterize_cmd;
      diff_vcd_cmd;
      hazards_cmd;
      equiv_cmd;
      explain_cmd;
    ]

(* The last line of defence: user-facing failures raised anywhere in a
   subcommand render as one diagnostic line, never a backtrace.
   [~catch:false] because cmdliner would otherwise report them as
   internal errors before they reach this handler. *)
let () =
  exit
    (try Cmd.eval' ~catch:false main_cmd with
    | Diag.Fail d ->
        prerr_endline ("halotis: " ^ Diag.to_string d);
        1
    | Invalid_argument m ->
        let hint =
          if String.length m >= 9 && String.sub m 0 9 = "Dc.levels" then
            Some
              "the feedback loop has no stable DC point (a ring oscillator?); bound \
               the run with --max-events or enable --watchdog"
          else None
        in
        prerr_endline
          ("halotis: " ^ Diag.to_string (Diag.make ~code:"invalid-input" ?hint m));
        1
    | e ->
        prerr_endline ("halotis: internal error: " ^ Printexc.to_string e);
        Cmd.Exit.internal_error)
