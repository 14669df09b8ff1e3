(* The HALOTIS experiment harness: regenerates every table and figure
   of the paper's evaluation, plus the extension experiments from
   DESIGN.md.

   Usage:
     dune exec bench/main.exe                     # everything
     dune exec bench/main.exe fig1 table2         # a selection
     dune exec bench/main.exe -- --list           # available experiments
     dune exec bench/main.exe -- --markdown out.md  # also write a report
     dune exec bench/main.exe -- --json out.json  # machine-readable results *)

let experiments : (string * string * (unit -> Halotis_report.Experiment.t list)) list =
  [
    ("fig1", "inertial delay wrong results (Fig. 1)", Exp_fig1.run);
    ("fig6", "multiplier waveforms, sequence A (Fig. 6)", Exp_fig6_7.run_fig6);
    ("fig7", "multiplier waveforms, sequence B (Fig. 7)", Exp_fig6_7.run_fig7);
    ("table1", "simulation statistics (Table 1)", Exp_table1.run);
    ("table2", "CPU time via Bechamel (Table 2)", Exp_table2.run);
    ("sweep", "degradation band (Section 2)", Exp_sweep.run);
    ("ablation", "cancellation rule & library sensitivity", Exp_ablation.run);
    ("calibration", "DDM parameters fitted from the analog substrate", Exp_calibration.run);
    ("latch", "glitch triggering stored state (extension)", Exp_latch.run);
    ("tree", "array vs Wallace-tree glitch activity (extension)", Exp_tree.run);
    ("collision", "input glitch collisions on a NAND2 (extension)", Exp_collision.run);
    ("scaling", "event throughput vs circuit size (extension)", Exp_scaling.run);
    ("hazard", "static hazard sites vs observed glitches (extension)", Exp_hazard.run);
    ("settle", "dynamic settle-time distribution (extension)", Exp_settle.run);
    ("setup", "flip-flop capture boundary & metastability onset (extension)", Exp_setup.run);
    ("vdd", "low-voltage operation (extension)", Exp_vdd.run);
    ("mult8", "the paper's protocol on an 8x8 multiplier (extension)", Exp_mult8.run);
    ("faults", "SET campaigns: DDM vs classic masking (extension)", Exp_faults.run);
    ("jobs", "supervised fault campaigns: identity and scaling (extension)", Exp_jobs.run);
    ("cone", "incremental cone re-simulation for fault campaigns (extension)", Exp_cone.run);
    ("serve", "persistent service: cache speedup and request throughput (extension)", Exp_serve.run);
    ("supervise", "fault-tolerant campaign supervision: recovery overhead (extension)", Exp_supervise.run);
    ("vary", "Monte-Carlo variation & aging campaigns (extension)", Exp_vary.run);
  ]

let list_experiments () =
  print_endline "available experiments:";
  List.iter (fun (name, descr, _) -> Printf.printf "  %-12s %s\n" name descr) experiments

(* Machine-readable results: one record per experiment with its
   agreement verdicts and the named numeric metrics it exported
   (throughputs etc.) — the input to perf regression tracking. *)
let json_of_records records =
  let module J = Halotis_util.Json in
  let module E = Halotis_report.Experiment in
  let obs (o : E.observation) =
    J.Obj
      [
        ("metric", J.Str o.E.metric);
        ("paper", J.Str o.E.paper);
        ("measured", J.Str o.E.measured);
        ( "agrees",
          match o.E.agrees with Some b -> J.Bool b | None -> J.Null );
        ("note", J.Str o.E.note);
      ]
  in
  let record (r : E.t) =
    J.Obj
      [
        ("exp_id", J.Str r.E.exp_id);
        ("title", J.Str r.E.title);
        ("observations", J.Arr (List.map obs r.E.observations));
        ("data", J.Obj (List.map (fun (k, v) -> (k, J.Num v)) r.E.data));
      ]
  in
  J.Obj
    [
      ("report", J.Str "halotis-bench");
      ("version", J.Num 1.);
      ("experiments", J.Arr (List.map record records));
    ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let args = List.filter (fun a -> a <> "--") args in
  let extract_opt flag args =
    let rec extract acc = function
      | f :: path :: rest when f = flag -> (Some path, List.rev_append acc rest)
      | x :: rest -> extract (x :: acc) rest
      | [] -> (None, List.rev acc)
    in
    extract [] args
  in
  let markdown, args = extract_opt "--markdown" args in
  let json, args = extract_opt "--json" args in
  if List.mem "--list" args then list_experiments ()
  else begin
    let selected =
      match args with
      | [] -> experiments
      | names ->
          List.map
            (fun name ->
              match List.find_opt (fun (n, _, _) -> n = name) experiments with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment %S\n" name;
                  list_experiments ();
                  exit 2)
            names
    in
    let records = List.concat_map (fun (_, _, run) -> run ()) selected in
    Common.section "paper vs measured";
    List.iter (fun r -> print_string (Halotis_report.Experiment.render r)) records;
    (match markdown with
    | Some path ->
        let oc = open_out path in
        output_string oc "# HALOTIS benchmark report\n\n";
        output_string oc (Halotis_report.Experiment.render_markdown records);
        close_out oc;
        Printf.printf "\nmarkdown report written to %s\n" path
    | None -> ());
    (match json with
    | Some path ->
        let oc = open_out path in
        output_string oc (Halotis_util.Json.to_string (json_of_records records));
        output_char oc '\n';
        close_out oc;
        Printf.printf "\njson results written to %s\n" path
    | None -> ());
    let divergent =
      List.exists
        (fun (r : Halotis_report.Experiment.t) ->
          List.exists
            (fun (o : Halotis_report.Experiment.observation) ->
              o.Halotis_report.Experiment.agrees = Some false)
            r.Halotis_report.Experiment.observations)
        records
    in
    if divergent then begin
      print_endline "\nWARNING: at least one observation diverges from the paper.";
      exit 1
    end
    else print_endline "\nAll observations consistent with the paper's claims."
  end
