(* End-to-end tests of the `halotis lint` command: exit codes 0/1/2 and
   machine-parseable JSON on stdout.  The executable and the example
   data are declared as dune deps, so paths are relative to the test's
   build directory. *)

module Json = Halotis_util.Json
module Lint = Halotis_lint.Lint

(* Anchor on the test binary so the paths resolve both under `dune
   runtest` (cwd = build dir) and `dune exec` (cwd = invocation dir). *)
let build_root = Filename.concat (Filename.dirname Sys.executable_name) ".."
let exe = Filename.concat build_root (Filename.concat "bin" "halotis_cli.exe")

let data f =
  Filename.concat build_root
    (Filename.concat "examples" (Filename.concat "data" f))

let run_capture args =
  let out = Filename.temp_file "halotis_cli" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2> /dev/null" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote out)
  in
  let status = Sys.command cmd in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let stdout = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (status, stdout)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

let test_exit_clean () =
  let status, _ = run_capture [ "lint"; data "c17.hnl" ] in
  checki "clean circuit exits 0" 0 status;
  let status, _ = run_capture [ "lint"; data "c17.hnl"; "--strict" ] in
  checki "clean circuit exits 0 under --strict" 0 status

let test_exit_warnings_strict () =
  (* Disabling ST001 leaves only warnings (non-monotone + runt pulse). *)
  let args =
    [ "lint"; data "c17.hnl"; "--stim"; data "c17_flawed.hsv"; "--disable"; "ST001" ]
  in
  let status, _ = run_capture args in
  checki "warnings exit 0 without --strict" 0 status;
  let status, _ = run_capture (args @ [ "--strict" ]) in
  checki "warnings exit 1 with --strict" 1 status

let test_exit_errors () =
  let status, _ = run_capture [ "lint"; data "flawed.hnl" ] in
  checki "errors exit 2" 2 status

let test_severity_promotion () =
  (* Promoting a warning rule to error flips the exit code to 2. *)
  let status, _ =
    run_capture
      [
        "lint"; data "c17.hnl"; "--stim"; data "c17_flawed.hsv";
        "--disable"; "ST001"; "--severity"; "ST003=error";
      ]
  in
  checki "promoted warning exits 2" 2 status

let test_json_stdout_parses () =
  let status, stdout =
    run_capture
      [
        "lint"; data "flawed.hnl"; "--stim"; data "c17_flawed.hsv";
        "--liberty"; data "flawed.lib"; "--format"; "json";
      ]
  in
  checki "flawed inputs exit 2" 2 status;
  match Json.parse stdout with
  | Error e -> Alcotest.failf "stdout is not valid JSON: %s" e
  | Ok j -> (
      checkb "tool tag" true (Json.member "tool" j = Some (Json.Str "halotis-lint"));
      match Ref_findings.findings_of_json j with
      | Error e -> Alcotest.fail e
      | Ok findings ->
          checkb "has errors" true
            (List.exists
               (fun (f : Halotis_lint.Finding.t) ->
                 f.Halotis_lint.Finding.severity = Halotis_lint.Finding.Error)
               findings);
          (* one finding from every domain: the acceptance criterion *)
          List.iter
            (fun domain ->
              checkb
                (Halotis_lint.Finding.domain_to_string domain ^ " domain present")
                true
                (List.exists
                   (fun (f : Halotis_lint.Finding.t) -> f.Halotis_lint.Finding.domain = domain)
                   findings))
            [
              Halotis_lint.Finding.Netlist; Halotis_lint.Finding.Tech;
              Halotis_lint.Finding.Liberty; Halotis_lint.Finding.Stim;
            ])

let test_list_rules_json () =
  let status, stdout = run_capture [ "lint"; "--list-rules"; "--format"; "json" ] in
  checki "list-rules exits 0" 0 status;
  match Json.parse stdout with
  | Error e -> Alcotest.failf "rule list is not valid JSON: %s" e
  | Ok j ->
      checki "all rules listed" (List.length Halotis_lint.Rule.all)
        (match j with Json.Arr l -> List.length l | _ -> 0)

let test_check_alias () =
  let status, _ = run_capture [ "check"; data "c17.hnl" ] in
  checki "check alias clean" 0 status;
  let status, _ = run_capture [ "check"; data "flawed.hnl" ] in
  checki "check alias flawed" 2 status

let faults_args =
  [
    "faults"; data "c17.hnl"; "--stim"; data "c17_walk.hsv"; "-n"; "10"; "--seed"; "3";
    "--format"; "json";
  ]

let test_faults_json () =
  let status, stdout = run_capture faults_args in
  checki "faults campaign exits 0" 0 status;
  match Json.parse stdout with
  | Error e -> Alcotest.failf "faults report is not valid JSON: %s" e
  | Ok j ->
      checkb "tool key" true (Json.member "tool" j = Some (Json.Str "halotis-faults"));
      checkb "seed echoed" true (Json.member "seed" j = Some (Json.Num 3.));
      (match Json.member "verdicts" j with
      | Some (Json.Arr vs) -> checki "one verdict per injection" 10 (List.length vs)
      | _ -> Alcotest.fail "verdicts array missing");
      (match Json.member "summary" j with
      | Some summary ->
          checkb "summary counts present" true
            (Json.member "propagated" summary <> None
            && Json.member "masking_rate" summary <> None)
      | None -> Alcotest.fail "summary missing")

let test_faults_deterministic () =
  let _, first = run_capture faults_args in
  let _, second = run_capture faults_args in
  Alcotest.(check string) "same seed, byte-identical report" first second

let test_faults_bad_engine () =
  let status, _ =
    run_capture [ "faults"; data "c17.hnl"; "--engine"; "spice" ]
  in
  checkb "unknown engine rejected" true (status <> 0)

(* --- Sharded campaigns: the --jobs N report must be the --jobs 1
   report, byte for byte, on the 4x4 multiplier fixture --- *)

let mult_faults_args =
  [
    "faults"; data "mult4x4.hnl"; "--stim"; data "mult4x4.hsv"; "-n"; "9";
    "--seed"; "7"; "--t-stop"; "20000"; "--format"; "json";
  ]

let test_faults_jobs_byte_identical () =
  let status_s, serial = run_capture mult_faults_args in
  checki "serial campaign exits 0" 0 status_s;
  let status_j, sharded = run_capture (mult_faults_args @ [ "--jobs"; "3" ]) in
  checki "sharded campaign exits 0" 0 status_j;
  Alcotest.(check string) "--jobs 3 report byte-identical to serial" serial sharded

let test_faults_jobs_crash_resume () =
  (* A worker "crash" is a chunk journal with a torn tail: run the
     worker owning sites [3, 6) of the 9 (the middle third, as a
     one-shot sharded run laid them out) to completion, tear its last
     record in half, then let the supervisor resume.  It adopts the torn
     journal as a chunk, which re-simulates only its lost suffix, covers
     the never-journaled sites with fresh chunks, and the merged report
     must still match serial. *)
  let _, serial = run_capture mult_faults_args in
  let base = Filename.temp_file "halotis_cli_shard" ".journal" in
  Sys.remove base;
  let shard1 = base ^ ".1" in
  let status_w, _ =
    run_capture (mult_faults_args @ [ "--range"; "3:6"; "--journal"; shard1 ])
  in
  checki "range worker exits 0" 0 status_w;
  (* tear: drop the trailing newline and half the final record *)
  let ic = open_in_bin shard1 in
  let contents = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let torn =
    let upto = String.rindex_from contents (String.length contents - 2) '\n' in
    String.sub contents 0 (upto + 1 + ((String.length contents - upto) / 2))
  in
  checkb "fixture journal holds several verdicts" true
    (String.length torn < String.length contents);
  let oc = open_out_bin shard1 in
  output_string oc torn;
  close_out oc;
  let status_r, resumed =
    run_capture (mult_faults_args @ [ "--jobs"; "3"; "--resume"; base ])
  in
  checki "resumed sharded campaign exits 0" 0 status_r;
  Alcotest.(check string) "post-crash resume report byte-identical to serial" serial
    resumed;
  (* the parent leaves one merged serial journal at the base path and
     removes the chunk files *)
  checkb "merged journal written" true (Sys.file_exists base);
  checkb "chunk journals cleaned up" false (Sys.file_exists shard1);
  checkb "no cursor sidecar" false (Sys.file_exists (shard1 ^ ".cursor"));
  Sys.remove base

(* Earlier releases wrote a progress cursor [BASE.N.cursor] beside each
   chunk journal.  A --jobs resume that finds one left by an interrupted
   run of such a release removes it with the chunk files. *)
let test_faults_jobs_resume_removes_stale_cursor () =
  let _, serial = run_capture mult_faults_args in
  let base = Filename.temp_file "halotis_cli_cursor" ".journal" in
  Sys.remove base;
  let chunk = base ^ ".0" in
  let status_w, _ =
    run_capture (mult_faults_args @ [ "--range"; "0:3"; "--journal"; chunk ])
  in
  checki "range worker exits 0" 0 status_w;
  let cursor = chunk ^ ".cursor" in
  Out_channel.with_open_bin cursor (fun oc -> output_string oc "3\n");
  let status_r, resumed =
    run_capture (mult_faults_args @ [ "--jobs"; "2"; "--resume"; base ])
  in
  checki "resumed campaign exits 0" 0 status_r;
  Alcotest.(check string) "resumed report byte-identical to serial" serial resumed;
  checkb "stale cursor removed" false (Sys.file_exists cursor);
  Sys.remove base

(* A Diag raised inside a subcommand renders as a diagnostic with exit
   1, not as an uncaught exception. *)
let test_faults_missing_resume_journal () =
  let missing = Filename.temp_file "halotis_cli_missing" ".journal" in
  Sys.remove missing;
  let status, report = run_capture (mult_faults_args @ [ "--resume"; missing ]) in
  checki "missing journal is a diagnostic" 1 status;
  Alcotest.(check string) "no report" "" report

(* The one-shot sharding options are gone (every --jobs N > 1 campaign
   is supervised), and so is static site pruning. *)
let test_faults_removed_options () =
  let status_shard, _ = run_capture (mult_faults_args @ [ "--shard"; "0/2" ]) in
  checki "--shard is an unknown option" 124 status_shard;
  let status_sup, _ =
    run_capture (mult_faults_args @ [ "--jobs"; "2"; "--supervise"; "off" ])
  in
  checki "--supervise is an unknown option" 124 status_sup;
  let status_keep, _ =
    run_capture (mult_faults_args @ [ "--jobs"; "2"; "--keep-shards" ])
  in
  checki "--keep-shards is an unknown option" 124 status_keep;
  let status_prune, _ = run_capture (mult_faults_args @ [ "--prune"; "static" ]) in
  checki "--prune is an unknown option" 124 status_prune;
  let status_poison, _ =
    run_capture (mult_faults_args @ [ "--jobs"; "2"; "--poison-after"; "3" ])
  in
  checki "--poison-after is an unknown option" 124 status_poison

(* A serial journal (here one parked by --limit-sites) holds no chunk
   journals: a --jobs resume must refuse it instead of silently
   re-simulating every site and overwriting it. *)
let test_faults_jobs_resume_of_serial_journal () =
  let journal = Filename.temp_file "halotis_cli_serial" ".journal" in
  Sys.remove journal;
  let status_p, _ =
    run_capture (mult_faults_args @ [ "--limit-sites"; "3"; "--journal"; journal ])
  in
  checki "parked serial campaign exits 3" 3 status_p;
  let parked = In_channel.with_open_bin journal In_channel.input_all in
  let status, report =
    run_capture (mult_faults_args @ [ "--jobs"; "2"; "--resume"; journal ])
  in
  checki "--jobs resume of a serial journal is refused" 1 status;
  Alcotest.(check string) "no report" "" report;
  Alcotest.(check string) "journal untouched" parked
    (In_channel.with_open_bin journal In_channel.input_all);
  Sys.remove journal

(* --- survival subcommand --- *)

let test_survival_text () =
  let status, stdout = run_capture [ "survival"; data "c17.hnl" ] in
  checki "survival exits 0" 0 status;
  checkb "renders the map header" true
    (String.length stdout > 0
    && String.sub stdout 0 (min 12 (String.length stdout)) = "survival map")

let test_survival_json () =
  let status, stdout =
    run_capture [ "survival"; data "mult4x4.hnl"; "--format"; "json" ]
  in
  checki "survival --format json exits 0" 0 status;
  match Json.parse stdout with
  | Error e -> Alcotest.failf "survival map is not valid JSON: %s" e
  | Ok j ->
      checkb "tool key" true
        (Json.member "tool" j = Some (Json.Str "halotis-survival"));
      checkb "not degenerate" true
        (Json.member "degenerate" j = Some (Json.Bool false));
      (match Json.member "sites" j with
      | Some (Json.Arr sites) -> checkb "many sites" true (List.length sites > 50)
      | _ -> Alcotest.fail "sites array missing")

(* A budget-stopped run's record is its JSON document: partial, the
   stop reason and the instant of the last processed event. *)
let ring_args = [ "simulate"; data "ring.hnl"; "--stim"; data "ring.hsv"; "--t-stop"; "100000" ]

let test_simulate_stopped_json () =
  let status, stdout =
    run_capture (ring_args @ [ "--model"; "ddm"; "--max-events"; "200"; "--json" ])
  in
  checki "budget stop exits 3" 3 status;
  match Json.parse stdout with
  | Error e -> Alcotest.failf "simulate --json is not valid JSON: %s" e
  | Ok j -> (
      checkb "partial" true (Json.member "partial" j = Some (Json.Bool true));
      match (Json.member "end_time" j, Json.member "t_stop" j) with
      | Some (Json.Num e), Some (Json.Num t) ->
          checkb "end_time within t_stop" true (e > 0. && e <= t)
      | _ -> Alcotest.fail "end_time or t_stop missing")

(* The waveform-prefix checkpoint file is gone. *)
let test_simulate_removed_options () =
  let status, _ = run_capture (ring_args @ [ "--model"; "ddm"; "--checkpoint"; "x" ]) in
  checki "--checkpoint is an unknown option" 124 status

(* A missing input file reaches its reader, whose [io] diagnostic exits
   1 (not cmdliner's usage error, 124). *)
let test_missing_inputs () =
  let missing ext =
    let p = Filename.temp_file "halotis_cli_missing" ext in
    Sys.remove p;
    p
  in
  let status, _ = run_capture [ "simulate"; missing ".hnl"; "--stim"; data "c17_walk.hsv" ] in
  checki "missing netlist" 1 status;
  let status, _ = run_capture [ "simulate"; data "c17.hnl"; "--stim"; missing ".hsv" ] in
  checki "missing stimulus" 1 status;
  let status, _ = run_capture [ "diff-vcd"; missing ".vcd"; missing ".vcd" ] in
  checki "missing vcd" 1 status

(* Runs the CLI for its exit status and stderr. *)
let run_stderr args =
  let err = Filename.temp_file "halotis_cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote err)
  in
  let status = Sys.command cmd in
  let stderr = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, stderr)

let with_temp_file ext text f =
  let p = Filename.temp_file "halotis_cli_input" ext in
  Out_channel.with_open_bin p (fun oc -> output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove p) (fun () -> f p)

(* An error that belongs to no line carries none: an empty netlist is
   [FILE: empty document], not [FILE:0: ...]. *)
let test_empty_netlist_has_no_line () =
  with_temp_file ".hnl" "" @@ fun p ->
  let status, stderr = run_stderr [ "check"; p ] in
  checki "empty netlist exits 1" 1 status;
  Alcotest.(check string)
    "line-less diagnostic"
    (Printf.sprintf
       "halotis: error[netlist-parse]: %s: empty document\n\
       \  hint: see doc/FORMATS.md for the HNL grammar\n"
       p)
    stderr

(* A Liberty file cut short inside a group fails at its last line, not
   at a byte offset. *)
let test_truncated_liberty_names_last_line () =
  with_temp_file ".lib" "library (t) {\n  cell (inv) {\n    pin (a) {\n" @@ fun p ->
  let status, stderr = run_stderr [ "lint"; data "c17.hnl"; "--liberty"; p ] in
  checki "truncated liberty exits 1" 1 status;
  Alcotest.(check string)
    "diagnostic at the last line"
    (Printf.sprintf "halotis: error[liberty-parse]: %s:3: unterminated group\n" p)
    stderr

let tests =
  [
    ( "cli.simulate",
      [
        Alcotest.test_case "stopped run json" `Quick test_simulate_stopped_json;
        Alcotest.test_case "--checkpoint removed" `Quick test_simulate_removed_options;
        Alcotest.test_case "missing inputs are io diagnostics" `Quick test_missing_inputs;
      ] );
    ( "cli.survival",
      [
        Alcotest.test_case "text map" `Quick test_survival_text;
        Alcotest.test_case "json map" `Quick test_survival_json;
      ] );
    ( "cli.faults",
      [
        Alcotest.test_case "json report" `Quick test_faults_json;
        Alcotest.test_case "deterministic" `Quick test_faults_deterministic;
        Alcotest.test_case "bad engine rejected" `Quick test_faults_bad_engine;
        Alcotest.test_case "--jobs 3 byte-identical" `Quick
          test_faults_jobs_byte_identical;
        Alcotest.test_case "crash-resume byte-identical" `Quick
          test_faults_jobs_crash_resume;
        Alcotest.test_case "--shard/--supervise removed" `Quick
          test_faults_removed_options;
        Alcotest.test_case "--jobs resume removes a stale cursor" `Quick
          test_faults_jobs_resume_removes_stale_cursor;
        Alcotest.test_case "missing --resume journal is a diagnostic" `Quick
          test_faults_missing_resume_journal;
        Alcotest.test_case "--jobs resume of a serial journal refused" `Quick
          test_faults_jobs_resume_of_serial_journal;
      ] );
    ( "cli.lint",
      [
        Alcotest.test_case "exit 0 on clean" `Quick test_exit_clean;
        Alcotest.test_case "exit 1 on strict warnings" `Quick test_exit_warnings_strict;
        Alcotest.test_case "exit 2 on errors" `Quick test_exit_errors;
        Alcotest.test_case "severity promotion" `Quick test_severity_promotion;
        Alcotest.test_case "json stdout parses" `Quick test_json_stdout_parses;
        Alcotest.test_case "list-rules json" `Quick test_list_rules_json;
        Alcotest.test_case "check alias" `Quick test_check_alias;
        Alcotest.test_case "empty netlist has no line" `Quick test_empty_netlist_has_no_line;
        Alcotest.test_case "truncated liberty names its last line" `Quick
          test_truncated_liberty_names_last_line;
      ] );
  ]
