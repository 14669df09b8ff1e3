(* The supervision probe of the traced campaign-rand run: the
   [halotis faults] CLI with [--jobs 2] (supervised mode) on a small
   generated circuit written to files, where one site costs
   microseconds, so the time goes to process spawns, per-chunk re-parse
   and baseline, per-verdict fsync with a cursor, and the merge.

   Each repetition runs, one after another: the CLI at [--jobs 2]; the
   supervisor driven as the CLI drives it, so its phases can be timed
   apart; and the CLI at [--jobs 1].  Every report must equal, byte for
   byte, an in-process serial Campaign.run rendered by
   Fault_report.to_string.

   Its wall-clock rates are per-layer metrics only: on a shared 2-core
   host they drift by a quarter from run to run, too much for an
   end-to-end bound (see perfbench/README.md). *)

module N = Halotis_netlist.Netlist
module Sim = Halotis_engine.Sim
module Campaign = Halotis_fault.Campaign
module Journal = Halotis_fault.Journal
module Shard = Halotis_fault.Shard
module Site = Halotis_fault.Site
module Supervisor = Halotis_fault.Supervisor
module Inject = Halotis_fault.Inject
module Fault_report = Halotis_fault.Fault_report
module Budget = Halotis_guard.Budget

let tech = W_sim.tech
let jobs = 2
let width = 150.
let slope = 100.

(* Runs the CLI to completion; stdout and stderr go to files in the
   work directory.  Returns the wall time, exit status and stdout. *)
let cli_run ~work_dir argv =
  let out = Filename.concat work_dir "cli.out" and err = Filename.concat work_dir "cli.err" in
  let fd_out = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_err = Unix.openfile err [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Calib.tick ();
  let t0 = Meas.now () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd_out;
        Unix.close fd_err)
      (fun () -> Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin fd_out fd_err)
  in
  let _, status = Unix.waitpid [] pid in
  let wall = Calib.scale (Meas.now () -. t0) in
  (wall, status, Meas.read_file out)

type result = {
  layer : (string * float) list;
  params : (string * string) list;
  attempted : int;
  failed : int;
}

let probe ~work_dir ~cli ~seed ~tiny =
  let gates = if tiny then 20 else 200 and inputs = 8 and toggles = 6 and period = 2000. in
  let grid = 2 and reps = if tiny then 1 else 3 in
  let inp = Gen.circuit_and_stim ~name:"supsmall" ~gates ~inputs ~toggles ~period ~seed in
  let hnl = Filename.concat work_dir "supervised.hnl"
  and hsv = Filename.concat work_dir "supervised.hsv" in
  Meas.write_file hnl inp.Gen.hnl;
  Meas.write_file hsv inp.Gen.hsv;
  let c, drives, _ = W_sim.setup inp in
  let t_stop = inp.Gen.t_stop and cseed = Gen.derive seed 4 in
  let pulse = Inject.pulse ~slope ~width () in
  (* [faults --exhaustive]: every gate output at [grid] instants *)
  let sites =
    let baseline = Option.get (Sim.iddm (Sim.run Sim.Ddm (Sim.spec ~drives ~t_stop ~tech c))) in
    Site.exhaustive ~baseline ~times:(Site.grid ~t0:0. ~t1:t_stop ~points:grid)
  in
  let n = List.length sites in
  let cfg =
    Campaign.config ~engine:Campaign.Ddm ~seed:cseed ~n ~pulse ~t_stop
      ~site_budget:(Budget.make ()) ~prune:false ~incremental:true ~sites ()
  in
  let reference = Fault_report.to_string (Campaign.run cfg tech c ~drives) ^ "\n" in
  let campaign_argv =
    [ cli; "faults"; hnl; "--stim"; hsv; "--engine"; "ddm" ]
    @ [ "-n"; string_of_int n; "--seed"; string_of_int cseed ]
    @ [ "--width"; Printf.sprintf "%h" width; "--slope"; Printf.sprintf "%h" slope ]
    @ [ "--t-stop"; Printf.sprintf "%h" t_stop; "--incremental"; "on" ]
    @ [ "--exhaustive"; "--grid"; string_of_int grid ]
  in
  let attempted = ref 0 and failed = ref 0 in
  let expect what ok =
    incr attempted;
    if not ok then begin
      incr failed;
      Printf.eprintf "perfbench: supervision: %s differs from the serial report\n%!" what
    end
  in
  let cli jobs =
    let wall, status, out =
      Trace.span (Printf.sprintf "cli.jobs%d" jobs) (fun () ->
          cli_run ~work_dir (campaign_argv @ [ "--format"; "json"; "--jobs"; string_of_int jobs ]))
    in
    expect (Printf.sprintf "faults --jobs %d" jobs) (status = Unix.WEXITED 0 && out = reference);
    wall
  in
  (* Supervisor.run spawns [--range] workers by re-executing this binary,
     which hands them to the CLI; then the chunk journals are merged and
     the report rebuilt, as the CLI does. *)
  let supervise () =
    let base = Filename.concat work_dir "supervised-lib.journal" in
    let circuit = N.name c in
    let scfg = Supervisor.config ~chunk_sites:(Supervisor.auto_chunk_sites ~total:n ~jobs) ~jobs () in
    let worker_argv ~range:(lo, hi) ~journal =
      campaign_argv @ [ "--range"; Printf.sprintf "%d:%d" lo hi; "--journal"; journal ]
    in
    let check h =
      match h.Journal.jh_range with
      | Some r -> Journal.check h ~circuit ~range:r cfg
      | None -> Journal.check h ~circuit cfg
    in
    let mk_header ~range = Journal.header_of ~circuit ~range cfg in
    let cpu () =
      let t = Unix.times () in
      t.Unix.tms_cutime +. t.Unix.tms_cstime
    in
    Calib.tick ();
    let cpu0 = cpu () in
    let outcome, sup_s =
      Calib.time (fun () ->
          Trace.span "supervision.run" (fun () ->
              Supervisor.run scfg ~total:n ~base ~worker_argv ~check ~mk_header ()))
    in
    let worker_cpu = Calib.scale (cpu () -. cpu0) in
    let slots = outcome.Supervisor.sv_slots in
    let report, merge_s =
      Calib.time (fun () ->
          Trace.span "supervision.merge" (fun () ->
              let h, indexed =
                Trace.span "journal.load_merged" (fun () -> Shard.load_merged ~base ~jobs:slots)
              in
              Journal.check h ~circuit cfg;
              let completed, quarantined =
                Journal.partition ~first:0 (Journal.contiguous ~first:0 indexed)
              in
              let cam =
                Trace.span "campaign.replay" (fun () ->
                    Campaign.run { cfg with Campaign.completed; quarantined } tech c ~drives)
              in
              Trace.span "render.json" (fun () -> Fault_report.to_string cam)))
    in
    for k = 0 to slots - 1 do
      let j = Shard.journal_path base k in
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ j; Journal.cursor_path j; Shard.stderr_path base k ]
    done;
    expect "library-driven supervision" (report ^ "\n" = reference);
    (sup_s, merge_s, worker_cpu, outcome)
  in
  let runs =
    List.init reps (fun _ ->
        let sup_wall = cli jobs in
        let s = supervise () in
        (sup_wall, s, cli 1))
  in
  let med f = Meas.median (List.map f runs) in
  let supervise_s = med (fun (_, (s, _, _, _), _) -> s)
  and merge_s = med (fun (_, (_, m, _, _), _) -> m) in
  let worker_cpu = med (fun (_, (_, _, w, _), _) -> w) in
  let serial_wall = med (fun (_, _, w) -> w) in
  let overhead_x = (supervise_s +. merge_s) /. serial_wall in
  let cpu_x = worker_cpu /. float_of_int jobs /. serial_wall in
  let outcome_sum f = List.fold_left (fun acc (_, (_, _, _, o), _) -> acc + f o) 0 runs in
  let chunks = match runs with (_, (_, _, _, o), _) :: _ -> o.Supervisor.sv_slots | [] -> 0 in
  {
    layer =
      [
        ("supervised_sites_per_s", float_of_int n /. med (fun (w, _, _) -> w));
        ("serial_cli_sites_per_s", float_of_int n /. serial_wall);
        ("supervise_s", supervise_s);
        ("merge_s", merge_s);
        ("chunks", float_of_int chunks);
        ("retries", float_of_int (outcome_sum (fun o -> o.Supervisor.sv_retries)));
        ("kills", float_of_int (outcome_sum (fun o -> o.Supervisor.sv_kills)));
        ("worker_cpu_s", worker_cpu);
        ("worker_idle_frac", 1. -. (worker_cpu /. (supervise_s *. float_of_int jobs)));
        ("supervise_overhead_x", overhead_x);
        ("overhead_cpu_x", cpu_x);
        ("overhead_idle_x", overhead_x -. cpu_x);
      ];
    params =
      [
        ("supervised_gates", string_of_int gates);
        ("supervised_sites", Printf.sprintf "%d (every gate output at %d instants)" n grid);
        ("supervised_jobs", string_of_int jobs);
        ("supervised_reps", string_of_int reps);
      ];
    attempted = !attempted;
    failed = !failed;
  }
