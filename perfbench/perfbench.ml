(* The HALOTIS benchmark.  One invocation runs one workload for a fixed
   time, checks the program's outputs, and prints every metric by name
   with its unit: a human-readable block, one JSON report line (with
   provenance, quartiles, sample counts and the output checks), and last
   the JSON result line
   {"correct", "attempted", "failed", "metrics"}.

   perfbench/run.py builds this executable and the CLI, then runs it;
   see perfbench/README.md for the workloads and what each metric
   predicts. *)

module Json = Halotis_util.Json

type workload = {
  name : string;
  why : string;
  work : string * string;  (** what [work_per_s] counts on this workload, and its unit *)
  ref_work : string * string;  (** the same for [ref_work_per_s] *)
  latency : string;  (** the unit of work [p50_us] and [tail_us] time *)
  tail : float;  (** the quantile [tail_us] reports *)
  setup : string;  (** what [setup_s] covers *)
  run : Wl.ctx -> Wl.outcome;
}

let workloads =
  [
    {
      name = "sim-rand";
      why =
        "event kernel does almost all the work: DDM vs classic one-shot simulation on \
         identical inputs (the paper's CPU-time comparison)";
      work = ("ddm_events_per_s", "events/s");
      ref_work = ("classic_events_per_s", "events/s");
      latency = "one DDM kernel run of every circuit";
      (* a run yields about a hundred samples: p90 leaves ten beyond it *)
      tail = 0.9;
      setup = "HNL + HSV parse and Compiled.compile";
      run = W_sim.run;
    };
    {
      name = "campaign-rand";
      why =
        "in-process serial campaigns on the same site list: DDM work sits in Campaign, \
         Sim.Cone and digitize, classic work in full kernel re-runs; the traced run also \
         probes halotis faults --jobs 2 supervision";
      work = ("ddm_sites_per_s", "sites/s");
      ref_work = ("classic_sites_per_s", "sites/s");
      latency = "one DDM campaign site";
      (* a run strikes the same 6000 sites over and over: p99 would be the
         largest cones of the seed's circuits, p90 averages six hundred *)
      tail = 0.9;
      setup = "HNL + HSV parse and Compiled.compile";
      run = W_campaign.run;
    };
    {
      name = "serve-mix";
      why =
        "closed-loop client on Server.handle_line: protocol, dispatch, session stepping and \
         the compiled-circuit cache with more circuits than it holds";
      work = ("req_per_s", "req/s");
      ref_work = ("req_per_s_cache_fits", "req/s");
      latency = "one request";
      tail = 0.99;
      setup = "Server.create, hello and the first cold load";
      run = W_serve.run;
    };
  ]

(* The metric catalogue is BENCHMARK.json's: (name, unit) of every
   end-to-end and every per-layer metric. *)
let read_spec path =
  let fail m = failwith (Printf.sprintf "%s: %s" path m) in
  let j = match Json.parse (Meas.read_file path) with Ok j -> j | Error m -> fail m in
  let metrics key =
    match Json.member key j with
    | Some (Json.Arr ms) ->
        List.map
          (fun m ->
            match (Json.member "name" m, Json.member "unit" m) with
            | Some (Json.Str n), Some (Json.Str u) -> (n, u)
            | _ -> fail ("a metric of " ^ key ^ " lacks a name or unit"))
          ms
    | _ -> fail ("no " ^ key ^ " list")
  in
  (metrics "end_to_end", metrics "per_layer")

let num x = if Float.is_finite x then Json.Num x else Json.Null
let str s = Json.Str s
let strs kvs = Json.Obj (List.map (fun (k, v) -> (k, str v)) kvs)
let value v unit = Json.Obj [ ("value", num v); ("unit", str unit) ]
let print_json j = print_endline (Json.to_string ~indent:false j)

(* --- the run --- *)

let finite_or_zero x = if Float.is_finite x then x else 0.

(* Every per-layer metric of the catalogue, in its order: the measured
   value, or 0 with the reason it is absent.  [<layer>_self_s] is the
   self time of the spans named [<layer>.*]. *)
let per_layer_values spec (w : workload) (o : Wl.outcome) ~overhead =
  let self = Trace.self_by_layer () in
  let extra =
    List.filter_map
      (fun (name, _) ->
        if String.ends_with ~suffix:"_self_s" name then
          Option.map
            (fun s -> (name, s))
            (Hashtbl.find_opt self (Filename.chop_suffix name "_self_s"))
        else None)
      spec
    @ [ ("trace_overhead_frac", overhead) ]
  in
  let found = o.Wl.layer @ extra in
  List.map
    (fun (name, unit) ->
      match List.assoc_opt name found with
      | Some v when Float.is_finite v -> (name, v, unit, None)
      | Some _ | None ->
          ( name,
            0.,
            unit,
            Some
              (Printf.sprintf "not measured on %s, which does not load this layer" w.name) ))
    spec

let main ~spec ~workload ~seed ~seconds ~trace ~tiny ~work_dir ~cli ~rev ~source_digest =
  let w =
    match List.find_opt (fun w -> w.name = workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ workload);
        exit 2
  in
  let e2e_spec, layer_spec = read_spec spec in
  let ctx = { Wl.seed; seconds; tiny; work_dir; cli } in
  Trace.run_id := seed;
  Trace.enabled := trace;
  let o = w.run ctx in
  Trace.enabled := false;
  let peak_rss = Meas.peak_rss_mb () in
  (* The tracing overhead: the headline rate of a quarter-length untraced run
     over the traced one's. *)
  let overhead, o =
    if not trace then (Float.nan, o)
    else
      let plain = w.run { ctx with Wl.seconds = seconds /. 4. } in
      ( (Meas.median plain.Wl.work /. Meas.median o.Wl.work) -. 1.,
        {
          o with
          Wl.attempted = o.Wl.attempted + plain.Wl.attempted;
          failed = o.Wl.failed + plain.Wl.failed;
        } )
  in
  if trace then Trace.dump (Filename.concat work_dir (Printf.sprintf "spans-%s-%d.jsonl" w.name seed));
  let q xs = (Meas.quantile xs 0.5, Meas.quantile xs 0.25, Meas.quantile xs 0.75, List.length xs) in
  let hq p = Meas.hist_quantile o.Wl.latency p in
  let tail_name = Printf.sprintf "p%g" (w.tail *. 100.) in
  let measured =
    [
      ("setup_s", q o.Wl.setup, w.setup);
      ("work_per_s", q o.Wl.work, fst w.work ^ " (" ^ snd w.work ^ ")");
      ("ref_work_per_s", q o.Wl.ref_work, fst w.ref_work ^ " (" ^ snd w.ref_work ^ ")");
      ("p50_us", (hq 0.5, hq 0.25, hq 0.75, o.Wl.latency.total), "median of " ^ w.latency);
      ( "tail_us",
        (hq w.tail, hq w.tail, hq w.tail, o.Wl.latency.total),
        Printf.sprintf "%s of %s (%d samples beyond it)" tail_name w.latency
          (truncate ((1. -. w.tail) *. float_of_int o.Wl.latency.total)) );
      ("peak_rss_mb", (peak_rss, peak_rss, peak_rss, 1), "VmHWM of the benchmark process");
    ]
  in
  let missing = (Float.nan, Float.nan, Float.nan, 0) in
  let e2e =
    List.map
      (fun (name, unit) ->
        match List.find_opt (fun (n, _, _) -> n = name) measured with
        | Some (_, v, what) -> (name, unit, v, what)
        | None -> (name, unit, missing, "not measured by this benchmark"))
      e2e_spec
  in
  let correct =
    o.Wl.failed = 0
    && List.for_all (fun (_, _, (m, _, _, _), _) -> Float.is_finite m && m > 0.) e2e
  in
  let failed_frac = float_of_int o.Wl.failed /. float_of_int (max 1 o.Wl.attempted) in
  Printf.printf "perfbench %s seed=%d seconds=%g trace=%b%s\n" w.name seed seconds trace
    (if tiny then " (tiny sizes)" else "");
  Printf.printf "  why: %s\n" w.why;
  Printf.printf "  host speed: median %.4g of the reference speed over %d measurements\n"
    (Meas.median !Calib.speeds) (List.length !Calib.speeds);
  List.iter
    (fun (name, unit, (m, q1, q3, n), what) ->
      Printf.printf "  %-16s %14.6g %-4s  q1 %.6g  q3 %.6g  n=%d  [%s]\n" name m unit q1 q3 n what)
    e2e;
  Printf.printf "  %-16s %14.6g %-4s  (%d of %d operations failed)\n" "failed_frac" failed_frac
    "ratio" o.Wl.failed o.Wl.attempted;
  let layer = if trace then per_layer_values layer_spec w o ~overhead else [] in
  (* layer metrics a workload reports that the catalogue does not list *)
  let unlisted =
    List.filter (fun (name, _) -> not (List.mem_assoc name layer_spec)) o.Wl.layer
  in
  List.iter
    (fun (name, v, unit, why) ->
      Printf.printf "  %-22s %14.6g %-5s%s\n" name v unit
        (match why with Some r -> "  (" ^ r ^ ")" | None -> ""))
    layer;
  List.iter (fun (k, v) -> Printf.printf "  check %s = %s\n" k v) o.Wl.checks;
  print_json
    (Json.Obj
       [
         ( "perfbench_report",
           Json.Obj
             [
               ("workload", str w.name);
               ("why", str w.why);
               ("seed", Json.Num (float_of_int seed));
               ("seconds", num seconds);
               ("trace", Json.Bool trace);
               ("tiny", Json.Bool tiny);
               ( "provenance",
                 Json.Obj
                   [
                     ("nproc", Json.Num (float_of_int (Halotis_fault.Shard.available_cores ())));
                     ("git_rev", str rev);
                     ("source_digest", str source_digest);
                     ("ocaml", str Sys.ocaml_version);
                     ( "host_speed",
                       Json.Obj
                         [
                           ("reference_pass_s", num Calib.ref_s);
                           ("median", num (Meas.median !Calib.speeds));
                           ("q1", num (Meas.quantile !Calib.speeds 0.25));
                           ("q3", num (Meas.quantile !Calib.speeds 0.75));
                           ("n", Json.Num (float_of_int (List.length !Calib.speeds)));
                         ] );
                   ] );
               ("params", strs o.Wl.params);
               ( "end_to_end",
                 Json.Obj
                   (List.map
                      (fun (name, unit, (m, q1, q3, n), what) ->
                        ( name,
                          Json.Obj
                            [
                              ("median", num m);
                              ("q1", num q1);
                              ("q3", num q3);
                              ("n", Json.Num (float_of_int n));
                              ("unit", str unit);
                              ("measures", str what);
                            ] ))
                      e2e
                   @ [ ("failed_frac", num failed_frac) ]) );
               ("checks", strs o.Wl.checks);
               ( "per_layer",
                 Json.Obj (List.map (fun (name, v, unit, _) -> (name, value v unit)) layer) );
               ( "not_exercised",
                 strs
                   (List.filter_map
                      (fun (name, _, _, why) -> Option.map (fun r -> (name, r)) why)
                      layer) );
               ("unlisted", Json.Arr (List.map (fun (name, _) -> str name) unlisted));
             ] );
       ]);
  let metrics =
    if trace then List.map (fun (name, v, unit, _) -> (name, v, unit)) layer
    else List.map (fun (name, unit, (m, _, _, _), _) -> (name, finite_or_zero m, unit)) e2e
  in
  print_json
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int o.Wl.attempted));
         ("failed", Json.Num (float_of_int o.Wl.failed));
         ( "metrics",
           Json.Obj (List.map (fun (name, v, unit) -> (name, value v unit)) metrics) );
       ])

(* Shard.spawn re-executes this binary for supervised workers; hand
   those straight to the CLI the worker argv was built for. *)
let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "faults" then
    match Sys.getenv_opt "PERFBENCH_HALOTIS_CLI" with
    | Some cli -> Unix.execv cli Sys.argv
    | None ->
        prerr_endline "perfbench: worker mode needs PERFBENCH_HALOTIS_CLI";
        exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 and tiny = ref false in
  let spec = ref "BENCHMARK.json" and work_dir = ref ".perfbench" in
  let cli = ref "_build/default/bin/halotis_cli.exe" in
  let rev = ref "unknown" and source_digest = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input-generation seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured loop");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
      ("--tiny", Arg.Set tiny, " self-test sizes");
      ("--spec", Arg.Set_string spec, "PATH the metric catalogue (BENCHMARK.json)");
      ("--work-dir", Arg.Set_string work_dir, "DIR scratch directory inside the checkout");
      ("--cli", Arg.Set_string cli, "PATH the halotis CLI binary");
      ("--rev", Arg.Set_string rev, "REV source revision, for provenance");
      ("--source-digest", Arg.Set_string source_digest, "HEX digest of the sources, for provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  (* Child processes keep their temporary files inside the work
     directory, and supervised workers find the CLI through the
     environment. *)
  let tmp = Filename.concat !work_dir "tmp" in
  List.iter (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755) [ !work_dir; tmp ];
  Unix.putenv "TMPDIR" tmp;
  Unix.putenv "PERFBENCH_HALOTIS_CLI" !cli;
  main ~spec:!spec ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~tiny:!tiny
    ~work_dir:!work_dir ~cli:!cli ~rev:!rev ~source_digest:!source_digest
