module DL = Halotis_tech.Default_lib
module Json = Halotis_util.Json

let run ?(config = Rule.default_config) ?(tech = DL.tech) ?liberty ?stim c =
  let netlist_findings = Netlist_rules.run config c in
  let tech_findings = Tech_rules.run config tech c in
  let survival_findings = Survival_rules.run config tech c in
  let liberty_findings =
    match liberty with
    | Some lib -> Liberty_rules.run config ~base:tech lib
    | None -> []
  in
  let stim_findings =
    match stim with Some s -> Stim_rules.run config s c | None -> []
  in
  List.sort Finding.compare
    (netlist_findings @ tech_findings @ survival_findings @ liberty_findings
   @ stim_findings)

let preflight ?stim ~tech c =
  run ~config:Rule.default_config ~tech ?stim c
  |> List.filter (fun (f : Finding.t) -> f.Finding.severity <> Finding.Info)

let count severity findings =
  List.length
    (List.filter (fun (f : Finding.t) -> f.Finding.severity = severity) findings)

let errors findings = count Finding.Error findings
let warnings findings = count Finding.Warning findings
let infos findings = count Finding.Info findings

let exit_code ~strict findings =
  if errors findings > 0 then 2
  else if strict && warnings findings > 0 then 1
  else 0

let summary findings =
  let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s") in
  match
    List.filter
      (fun (n, _) -> n > 0)
      [
        (errors findings, "error");
        (warnings findings, "warning");
        (infos findings, "info");
      ]
  with
  | [] -> "clean"
  | parts -> String.concat ", " (List.map (fun (n, what) -> plural n what) parts)

let pp_text fmt findings =
  List.iter (fun f -> Format.fprintf fmt "%a@." Finding.pp f) findings

let report_to_json findings =
  Json.Obj
    [
      ("tool", Json.Str "halotis-lint");
      ("version", Json.Num 1.);
      ("findings", Json.Arr (List.map Finding.to_json findings));
      ( "summary",
        Json.Obj
          [
            ("errors", Json.Num (float_of_int (errors findings)));
            ("warnings", Json.Num (float_of_int (warnings findings)));
            ("infos", Json.Num (float_of_int (infos findings)));
          ] );
    ]

let rules_markdown () =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "| Id | Domain | Default severity | Rationale | Example |\n";
  Buffer.add_string buf "|----|--------|------------------|-----------|---------|\n";
  List.iter
    (fun (r : Rule.t) ->
      Buffer.add_string buf
        (Printf.sprintf "| %s | %s | %s | %s | %s |\n" r.Rule.id
           (Finding.domain_to_string r.Rule.domain)
           (Finding.severity_to_string r.Rule.severity)
           r.Rule.doc r.Rule.example))
    Rule.all;
  Buffer.contents buf

let rules_json () =
  Json.Arr
    (List.map
       (fun (r : Rule.t) ->
         Json.Obj
           [
             ("id", Json.Str r.Rule.id);
             ("domain", Json.Str (Finding.domain_to_string r.Rule.domain));
             ("severity", Json.Str (Finding.severity_to_string r.Rule.severity));
             ("doc", Json.Str r.Rule.doc);
           ])
       Rule.all)
