(* JOBS — multi-process fault campaigns (extension).

   `halotis faults --jobs N` supervises a pool of N workers over chunks
   of the same seeded enumeration and merges their verdict journals, so
   the contract under test is twofold: the merged report must be
   byte-identical to the serial run, and the wall-clock cost must scale
   with the number of usable cores (on a single-core host the honest
   expectation is parity plus a small fork/merge overhead, which this
   experiment records rather than hides).

   Unlike the in-process experiments this one must shell out: the
   workers re-exec the halotis binary, so the measurement is of the
   real CLI path, fork and fsync included. *)

open Common

let injections = 4000
let seed = 42
let job_counts = [ 1; 2; 4 ]

(* The bench binary is _build/.../bench/main.exe; the CLI sits in the
   sibling bin/ directory.  Data files resolve against the invocation
   cwd (repo root under `dune exec`) with the build tree as fallback. *)
let cli_exe =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "halotis_cli.exe"))

let data f =
  let local = Filename.concat "examples" (Filename.concat "data" f) in
  if Sys.file_exists local then local
  else
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat ".." local)

let run_campaign ~jobs out =
  let cmd =
    Printf.sprintf
      "%s faults %s --stim %s -n %d --seed %d --t-stop 20000 --format json \
       --jobs %d > %s 2> /dev/null"
      (Filename.quote cli_exe)
      (Filename.quote (data "mult4x4.hnl"))
      (Filename.quote (data "mult4x4.hsv"))
      injections seed jobs (Filename.quote out)
  in
  let t0 = Unix.gettimeofday () in
  let status = Sys.command cmd in
  let dt = Unix.gettimeofday () -. t0 in
  if status <> 0 then failwith (Printf.sprintf "--jobs %d campaign exited %d" jobs status);
  (dt, Digest.file out)

let run () =
  section "JOBS -- supervised fault campaigns: identity and scaling (extension)";
  Printf.printf "circuit mult4x4, %d injections, seed %d, host cores: %s\n\n" injections
    seed
    (try String.trim (In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all)
         |> String.split_on_char '\n'
         |> List.filter (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
         |> List.length |> string_of_int
     with Sys_error _ -> "?");
  let out = Filename.temp_file "halotis_jobs" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove out with Sys_error _ -> ())
    (fun () ->
      let rows = List.map (fun jobs -> (jobs, run_campaign ~jobs out)) job_counts in
      let _, (serial_t, serial_digest) = List.hd rows in
      Printf.printf "  %-8s %10s %10s %s\n" "jobs" "wall (s)" "speedup" "report";
      List.iter
        (fun (jobs, (dt, digest)) ->
          Printf.printf "  %-8d %10.3f %9.2fx %s\n" jobs dt (serial_t /. dt)
            (if digest = serial_digest then "identical" else "MISMATCH"))
        rows;
      let identical =
        List.for_all (fun (_, (_, digest)) -> digest = serial_digest) rows
      in
      let data =
        List.map
          (fun (jobs, (dt, _)) -> (Printf.sprintf "faults_jobs_%d_wall_s" jobs, dt))
          rows
      in
      let best_jobs, (best_t, _) =
        List.fold_left
          (fun ((_, (bt, _)) as best) ((_, (dt, _)) as row) ->
            if dt < bt then row else best)
          (List.hd rows) (List.tl rows)
      in
      [
        Experiment.make ~data ~exp_id:"JOBS"
          ~title:"Supervised multi-process fault campaigns (extension)"
          [
            Experiment.observation ~agrees:identical
              ~metric:"--jobs N report byte-identical to the serial run"
              ~paper:"(determinism of the seeded campaign enumeration)"
              ~measured:(if identical then "identical across jobs 1/2/4" else "MISMATCH")
              ();
            Experiment.observation
              ~metric:"wall-clock vs worker count"
              ~paper:"(expected to track usable cores)"
              ~measured:
                (Printf.sprintf "best %.3f s at --jobs %d vs %.3f s serial" best_t
                   best_jobs serial_t)
              ~note:
                "speedup requires multiple cores; on a 1-core host the \
                 fork/journal overhead dominates"
              ();
          ];
      ])
