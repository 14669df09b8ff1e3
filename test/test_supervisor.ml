(* Fault-tolerant campaign supervision.

   Three layers:
   - unit tests of the core count and the chunk planner;
   - end-to-end CLI tests of recovery: a worker SIGKILLed mid-journal
     (torn tail), a hung worker (heartbeat stall), a slow worker whose
     growing journal keeps it alive past the stall timeout, and a
     deterministic poison site that must be quarantined with the
     degraded exit code —
     for [faults], and for [vary], whose samples are supervisor chunks
     and whose quarantine fails the run;
   - a QCheck property: over random circuits, seeds, chunk sizes and
     injected kills/hangs, the supervised report AND merged journal are
     byte-identical to --jobs 1, with nothing quarantined when no
     poison is injected. *)

module Json = Halotis_util.Json
module Prng = Halotis_util.Prng
module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Hnl = Halotis_netlist.Hnl
module Shard = Halotis_fault.Shard
module Supervisor = Halotis_fault.Supervisor

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let test_available_cores () =
  checkb "the runtime answers >= 1" true (Shard.available_cores () >= 1)

(* --- chunk planning --- *)

let test_plan_chunks () =
  checkb "even split" true
    (Supervisor.plan_chunks ~total:10 ~chunk_sites:4 = [ (0, 4); (4, 8); (8, 10) ]);
  checkb "one big chunk" true
    (Supervisor.plan_chunks ~total:5 ~chunk_sites:100 = [ (0, 5) ]);
  checkb "empty campaign" true (Supervisor.plan_chunks ~total:0 ~chunk_sites:3 = []);
  let chunks = Supervisor.plan_chunks ~total:97 ~chunk_sites:7 in
  checkb "chunks cover the range exactly" true
    (List.fold_left
       (fun next (lo, hi) ->
         match next with
         | Some n when n = lo && lo < hi -> Some hi
         | _ -> None)
       (Some 0) chunks
    = Some 97);
  checkb "auto size is about four chunks per worker" true
    (Supervisor.auto_chunk_sites ~total:100 ~jobs:5 = 5);
  checkb "auto size is at least one" true
    (Supervisor.auto_chunk_sites ~total:2 ~jobs:8 = 1)

(* --- CLI harness (with environment control for chaos injection) --- *)

let build_root = Filename.concat (Filename.dirname Sys.executable_name) ".."
let exe = Filename.concat build_root (Filename.concat "bin" "halotis_cli.exe")

let data f =
  Filename.concat build_root
    (Filename.concat "examples" (Filename.concat "data" f))

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let run_env env args =
  let out = Filename.temp_file "halotis_sv" ".out" in
  let err = Filename.temp_file "halotis_sv" ".err" in
  let cmd =
    Printf.sprintf "%s%s %s > %s 2> %s"
      (String.concat ""
         (List.map (fun (k, v) -> Printf.sprintf "%s=%s " k (Filename.quote v)) env))
      (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out) (Filename.quote err)
  in
  let status = Sys.command cmd in
  let stdout = read_file out and stderr = read_file err in
  Sys.remove out;
  Sys.remove err;
  (status, stdout, stderr)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec find i = i + n <= m && (String.sub hay i n = needle || find (i + 1)) in
  find 0

let mult_args =
  [
    "faults"; data "mult4x4.hnl"; "--stim"; data "mult4x4.hsv"; "-n"; "9";
    "--seed"; "7"; "--t-stop"; "20000"; "--format"; "json";
  ]

(* --- satellite: SIGKILL mid-journal (torn tail), recovery identical --- *)

let test_chaos_kill_recovers_byte_identical () =
  (* HALOTIS_CHAOS_KILL appends a torn half-record to the chunk journal
     and SIGKILLs the worker after its first fresh verdict: every chunk
     dies once mid-journal, and the supervised retry must recover a
     report byte-identical to the serial run. *)
  let s0, serial, _ = run_env [] mult_args in
  checki "serial exits 0" 0 s0;
  let s1, recovered, stderr =
    run_env
      [ ("HALOTIS_CHAOS_KILL", "1") ]
      (mult_args @ [ "--jobs"; "2"; "--chunk-sites"; "3" ])
  in
  checki "supervised run recovers to exit 0" 0 s1;
  checks "recovered report byte-identical to serial" serial recovered;
  checkb "stall warnings were emitted" true
    (let rec count i acc =
       match String.index_from_opt stderr i 'w' with
       | Some j when j + 12 <= String.length stderr ->
           if String.sub stderr j 12 = "worker-stall" then count (j + 1) (acc + 1)
           else count (j + 1) acc
       | _ -> acc
     in
     count 0 0 >= 1)

let test_chaos_hang_recovers_byte_identical () =
  let s0, serial, _ = run_env [] mult_args in
  checki "serial exits 0" 0 s0;
  let s1, recovered, stderr =
    run_env
      [ ("HALOTIS_CHAOS_HANG", "1") ]
      (mult_args @ [ "--jobs"; "2"; "--chunk-sites"; "5"; "--worker-timeout"; "2" ])
  in
  checki "hung workers are killed and the run recovers" 0 s1;
  checks "recovered report byte-identical to serial" serial recovered;
  checkb "the stall kill is reported" true (contains stderr "no journal progress")

(* The chunk journal is the heartbeat: a worker journaling 5000 verdicts
   in one chunk runs for longer than the 0.4 s stall timeout in total
   (each verdict is fsynced), but its journal grows every few
   milliseconds, so it must never be stall-killed. *)
let test_growing_journal_is_a_heartbeat () =
  let args =
    [
      "faults"; data "mult4x4.hnl"; "--stim"; data "mult4x4.hsv"; "-n"; "5000";
      "--seed"; "7"; "--t-stop"; "20000"; "--format"; "json";
    ]
  in
  let timeout = 0.4 in
  let s0, serial, _ = run_env [] args in
  checki "serial exits 0" 0 s0;
  let t0 = Unix.gettimeofday () in
  let s1, supervised, stderr =
    run_env []
      (args
      @ [ "--jobs"; "2"; "--chunk-sites"; "5000"; "--worker-timeout"; string_of_float timeout ])
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  checki "supervised exits 0" 0 s1;
  checks "report byte-identical to serial" serial supervised;
  checkb "no worker was stall-killed" false (contains stderr "worker-stall");
  if elapsed <= timeout then
    Alcotest.failf "the worker finished in %.3fs, inside the %.2fs timeout: raise -n" elapsed
      timeout

(* --- deterministic poison site: quarantine + degraded exit code --- *)

let test_poison_quarantine_degraded () =
  let s, report, stderr =
    run_env
      [ ("HALOTIS_CHAOS_POISON", "4") ]
      (mult_args @ [ "--jobs"; "2"; "--chunk-sites"; "3" ])
  in
  checki "degraded campaign exits 5" 5 s;
  (match Json.parse report with
  | Error e -> Alcotest.failf "degraded report is not valid JSON: %s" e
  | Ok j -> (
      checkb "degraded flag set" true (Json.member "degraded" j = Some (Json.Bool true));
      checkb "quarantine count" true
        (Json.member "sites_quarantined" j = Some (Json.Num 1.));
      checkb "partial is about limits, not quarantine" true
        (Json.member "partial" j = Some (Json.Bool false));
      (match Json.member "verdicts" j with
      | Some (Json.Arr vs) -> checki "the other eight sites have verdicts" 8 (List.length vs)
      | _ -> Alcotest.fail "verdicts array missing");
      match Json.member "quarantined_sites" j with
      | Some (Json.Arr [ site ]) ->
          checkb "quarantined site index" true
            (Json.member "index" site = Some (Json.Num 4.));
          checkb "quarantined site is named" true
            (match (Json.member "gate" site, Json.member "signal" site) with
            | Some (Json.Str g), Some (Json.Str s) -> g <> "" && s <> ""
            | _ -> false)
      | _ -> Alcotest.fail "quarantined_sites must list exactly site 4"));
  checkb "stderr carries the site-quarantined warning" true
    (contains stderr "site-quarantined")

(* --- vary --jobs: one chunk per sample under the same supervisor --- *)

(* c17 at width 60: 3 samples of 6 strikes, global index k*6 + i *)
let vary_args more =
  [
    "vary"; data "c17.hnl"; "--stim"; data "c17_walk.hsv"; "-n"; "6"; "--seed"; "7";
    "--width"; "60"; "--samples"; "3"; "--sigma-device"; "0.15";
  ]
  @ more

let test_vary_chaos_kill_recovers_byte_identical () =
  let s0, serial, _ = run_env [] (vary_args []) in
  checki "serial exits 0" 0 s0;
  let s1, recovered, stderr =
    run_env [ ("HALOTIS_CHAOS_KILL", "1") ] (vary_args [ "--jobs"; "2" ])
  in
  checki "supervised vary recovers to exit 0" 0 s1;
  checks "recovered report byte-identical to serial" serial recovered;
  checkb "stall warnings were emitted" true (contains stderr "worker-stall")

let temp_base tag =
  let p = Filename.temp_file "halotis_sv_vary" tag in
  Sys.remove p;
  p

let test_vary_journals_match_serial () =
  let sbase = temp_base ".serial" and pbase = temp_base ".jobs" in
  let s0, _, _ = run_env [] (vary_args [ "--journal"; sbase ]) in
  let s1, _, _ = run_env [] (vary_args [ "--jobs"; "2"; "--journal"; pbase ]) in
  checki "serial exits 0" 0 s0;
  checki "supervised exits 0" 0 s1;
  for k = 0 to 2 do
    let sj = Printf.sprintf "%s.s%d" sbase k and pj = Printf.sprintf "%s.s%d" pbase k in
    checks (Printf.sprintf "sample %d journal byte-identical" k) (read_file sj)
      (read_file pj);
    Sys.remove sj;
    Sys.remove pj
  done;
  checkb "chunk journals removed" false (Sys.file_exists (Shard.journal_path pbase 0));
  checkb "no cursor sidecar" false (Sys.file_exists (Shard.journal_path pbase 0 ^ ".cursor"))

let test_vary_poison_fails_naming_site () =
  (* global index 8 is strike 2 of sample 1 *)
  let base = temp_base ".poison" in
  let s, report, stderr =
    run_env
      [ ("HALOTIS_CHAOS_POISON", "8") ]
      (vary_args [ "--jobs"; "2"; "--journal"; base ])
  in
  checki "quarantine fails the vary run" 1 s;
  checks "no report is rendered" "" report;
  checkb "the quarantine diagnostic" true (contains stderr "error[site-quarantined]");
  checkb "names the sample and site" true (contains stderr "sample 1 site 2 (");
  (* the failed run keeps what it finished *)
  for id = 0 to 2 do
    checkb (Printf.sprintf "chunk journal %d kept" id) true
      (Sys.file_exists (Shard.journal_path base id));
    checkb (Printf.sprintf "no cursor sidecar %d" id) false
      (Sys.file_exists (Shard.journal_path base id ^ ".cursor"))
  done;
  let sj k = Printf.sprintf "%s.s%d" base k in
  checkb "clean sample 0 journaled" true (Sys.file_exists (sj 0));
  checkb "clean sample 2 journaled" true (Sys.file_exists (sj 2));
  checkb "failing sample 1 not journaled" false (Sys.file_exists (sj 1));
  (* ... so a serial resume finishes it, re-simulating only sample 1 *)
  let s0, serial, _ = run_env [] (vary_args []) in
  checki "serial exits 0" 0 s0;
  let s1, resumed, _ = run_env [] (vary_args [ "--resume"; base ]) in
  checki "serial resume exits 0" 0 s1;
  checks "resumed report byte-identical to serial" serial resumed;
  for k = 0 to 2 do
    Sys.remove (sj k);
    Sys.remove (Shard.journal_path base k)
  done

(* --jobs resumes chunk journals and serial resumes BASE.sK; a base
   holding only the other mode's journals is refused, not ignored *)
let test_vary_resume_refused_across_modes () =
  let sbase = temp_base ".serial" in
  let s0, _, _ = run_env [] (vary_args [ "--journal"; sbase ]) in
  checki "serial journal run exits 0" 0 s0;
  let s1, report, stderr = run_env [] (vary_args [ "--jobs"; "2"; "--resume"; sbase ]) in
  checki "--jobs resume of serial journals is refused" 1 s1;
  checks "no report is rendered" "" report;
  checkb "points at --jobs 1" true (contains stderr "resume it with --jobs 1");
  for k = 0 to 2 do
    Sys.remove (Printf.sprintf "%s.s%d" sbase k)
  done;
  let pbase = temp_base ".jobs" in
  let chunk = Shard.journal_path pbase 0 in
  let s2, _, _ = run_env [] (vary_args [ "--range"; "0:6"; "--journal"; chunk ]) in
  checki "a sample-0 worker exits 0" 0 s2;
  let s3, report, stderr = run_env [] (vary_args [ "--resume"; pbase ]) in
  checki "serial resume of chunk journals is refused" 1 s3;
  checks "no report is rendered" "" report;
  checkb "points at --jobs N" true (contains stderr "resume it with --jobs N");
  Sys.remove chunk

(* --- property: supervised == serial over random campaigns --- *)

(* A random combinational circuit and a matching stimulus file, written
   to disk for the CLI. *)
let write_fixture ~gates ~seed =
  let c = G.random_combinational ~name:"randsv" ~gates ~inputs:5 ~seed () in
  let hnl = Filename.temp_file "halotis_sv" ".hnl" in
  let oc = open_out hnl in
  output_string oc (Hnl.to_string c);
  close_out oc;
  let rng = Prng.create ~seed:(seed * 13 + 5) in
  let hsv = Filename.temp_file "halotis_sv" ".hsv" in
  let oc = open_out hsv in
  output_string oc "slope 80\n";
  List.iter
    (fun sid ->
      let name = N.signal_name c sid in
      let init = if Prng.bool rng then 1 else 0 in
      let changes =
        List.init 3 (fun k ->
            Printf.sprintf "%d@%d"
              (if Prng.bool rng then 1 else 0)
              ((k + 1) * 700) )
      in
      output_string oc
        (Printf.sprintf "input %s %d %s\n" name init (String.concat " " changes)))
    (N.primary_inputs c);
  close_out oc;
  (hnl, hsv)

let prop_supervised_equals_serial =
  (* a faults campaign (one part, chunked) or a vary campaign of 2-3
     samples (one part and one chunk per sample) *)
  let gen =
    QCheck.Gen.(
      int_range 1 1000 >>= fun seed ->
      int_range 8 18 >>= fun gates ->
      int_range 4 9 >>= fun nsites ->
      oneof [ map (fun c -> `Faults c) (int_range 1 4); map (fun k -> `Vary k) (int_range 2 3) ]
      >>= fun kind ->
      (match kind with
      | `Faults _ -> oneofl [ `None; `Kill 1; `Kill 2; `Hang 1 ]
      | `Vary _ -> oneofl [ `None; `Kill 1; `Kill 2 ])
      >>= fun chaos -> return (seed, gates, nsites, kind, chaos))
  in
  let print (seed, gates, nsites, kind, chaos) =
    Printf.sprintf "seed=%d gates=%d n=%d %s chaos=%s" seed gates nsites
      (match kind with
      | `Faults chunk -> Printf.sprintf "faults chunk=%d" chunk
      | `Vary k -> Printf.sprintf "vary samples=%d" k)
      (match chaos with
      | `None -> "none"
      | `Kill n -> Printf.sprintf "kill:%d" n
      | `Hang n -> Printf.sprintf "hang:%d" n)
  in
  QCheck.Test.make ~count:10
    ~name:"supervised report and journal byte-identical to --jobs 1"
    (QCheck.make ~print gen)
    (fun (seed, gates, nsites, kind, chaos) ->
      let hnl, hsv = write_fixture ~gates ~seed in
      let sj = Filename.temp_file "halotis_sv" ".sjournal" in
      let pj = Filename.temp_file "halotis_sv" ".pjournal" in
      Sys.remove sj;
      Sys.remove pj;
      (* the journals a run leaves: the merged journal, or BASE.sK *)
      let journals base =
        match kind with
        | `Faults _ -> [ base ]
        | `Vary k -> List.init k (Printf.sprintf "%s.s%d" base)
      in
      let args journal =
        (match kind with
        | `Faults _ -> [ "faults"; hnl ]
        | `Vary k ->
            [ "vary"; hnl; "--samples"; string_of_int k; "--sigma-device"; "0.1" ])
        @ [
            "--stim"; hsv; "-n"; string_of_int nsites; "--seed"; string_of_int seed;
            "--t-stop"; "6000"; "--format"; "json"; "--journal"; journal;
          ]
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> try Sys.remove p with Sys_error _ -> ())
            ([ hnl; hsv ] @ journals sj @ journals pj))
        (fun () ->
          let s0, serial, _ = run_env [] (args sj) in
          let env, extra =
            match chaos with
            | `None -> ([], [])
            | `Kill n -> ([ ("HALOTIS_CHAOS_KILL", string_of_int n) ], [])
            | `Hang n ->
                ( [ ("HALOTIS_CHAOS_HANG", string_of_int n) ],
                  [ "--worker-timeout"; "2" ] )
          in
          let chunking =
            match kind with
            | `Faults chunk -> [ "--chunk-sites"; string_of_int chunk ]
            | `Vary _ -> []
          in
          let s1, supervised, _ =
            run_env env (args pj @ [ "--jobs"; "2" ] @ chunking @ extra)
          in
          s0 = 0 && s1 = 0 && serial = supervised
          && List.map read_file (journals sj) = List.map read_file (journals pj)
          &&
          (* no poison injected: nothing may be quarantined *)
          match (kind, Json.parse supervised) with
          | `Vary _, Ok _ -> true
          | `Faults _, Ok j ->
              Json.member "degraded" j = Some (Json.Bool false)
              && Json.member "quarantined_sites" j = Some (Json.Arr [])
          | _, Error _ -> false))

(* Without --journal a supervised run works in a private temporary
   directory, removed even when the run fails: here every chunk's worker
   dies once and --max-retries 0 turns the first death into a
   worker-retries failure. *)
let test_failed_run_leaves_no_temporaries () =
  let tmp = Filename.temp_dir "halotis_sv_tmpdir" "" in
  let s, report, stderr =
    run_env
      [ ("TMPDIR", tmp); ("HALOTIS_CHAOS_KILL", "1") ]
      (mult_args @ [ "--jobs"; "2"; "--max-retries"; "0" ])
  in
  let left = Sys.readdir tmp in
  Array.iter (fun f -> Sys.remove (Filename.concat tmp f)) left;
  Sys.rmdir tmp;
  checki "the failed run exits 1" 1 s;
  checks "no report is rendered" "" report;
  checkb "it failed on worker retries" true (contains stderr "worker-retries");
  checks "TMPDIR left empty" "" (String.concat " " (Array.to_list left))

let tests =
  [
    ( "supervisor.cores",
      [ Alcotest.test_case "available_cores is at least 1" `Quick test_available_cores ] );
    ( "supervisor.plan",
      [ Alcotest.test_case "chunk planning" `Quick test_plan_chunks ] );
    ( "supervisor.recovery",
      [
        Alcotest.test_case "SIGKILL mid-journal recovers byte-identical" `Quick
          test_chaos_kill_recovers_byte_identical;
        Alcotest.test_case "hung worker recovers byte-identical" `Quick
          test_chaos_hang_recovers_byte_identical;
        Alcotest.test_case "growing journal outlives the stall timeout" `Quick
          test_growing_journal_is_a_heartbeat;
        Alcotest.test_case "poison site quarantined, exit 5" `Quick
          test_poison_quarantine_degraded;
        Alcotest.test_case "failed run leaves no temporaries" `Quick
          test_failed_run_leaves_no_temporaries;
        QCheck_alcotest.to_alcotest prop_supervised_equals_serial;
      ] );
    ( "supervisor.vary",
      [
        Alcotest.test_case "SIGKILL recovers byte-identical" `Quick
          test_vary_chaos_kill_recovers_byte_identical;
        Alcotest.test_case "sample journals == serial --journal" `Quick
          test_vary_journals_match_serial;
        Alcotest.test_case "poison site fails naming sample and site" `Quick
          test_vary_poison_fails_naming_site;
        Alcotest.test_case "resume refused across modes" `Quick
          test_vary_resume_refused_across_modes;
      ] );
  ]
