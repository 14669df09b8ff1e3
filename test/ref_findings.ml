(* A reader of the lint JSON report, the inverse of [Finding.to_json]
   and [Lint.report_to_json]: the suite round-trips findings and reports
   through it.  Nothing in the library reads findings back. *)

module Json = Halotis_util.Json
module Finding = Halotis_lint.Finding

let domain_of_string = function
  | "netlist" -> Some Finding.Netlist
  | "tech" -> Some Finding.Tech
  | "liberty" -> Some Finding.Liberty
  | "stim" -> Some Finding.Stim
  | _ -> None

let location_of_strings kind name =
  match kind with
  | "circuit" -> Some Finding.Circuit
  | "signal" -> Some (Finding.Signal name)
  | "gate" -> Some (Finding.Gate name)
  | "gates" ->
      Some
        (Finding.Gates
           (String.split_on_char '-' name
           |> List.concat_map (fun part ->
                  match String.trim part with "" | ">" -> [] | s ->
                    [ (if String.length s > 0 && s.[0] = '>' then
                         String.trim (String.sub s 1 (String.length s - 1))
                       else s) ])))
  | "pin" -> (
      match String.rindex_opt name '.' with
      | Some i -> (
          let gate = String.sub name 0 i in
          let pin = String.sub name (i + 1) (String.length name - i - 1) in
          match int_of_string_opt pin with
          | Some p -> Some (Finding.Pin (gate, p))
          | None -> None)
      | None -> None)
  | "kind" -> Some (Finding.Kind name)
  | "cell" -> Some (Finding.Cell name)
  | "entry" -> Some (Finding.Entry name)
  | _ -> None

let to_str = function Json.Str s -> Some s | _ -> None

let finding_of_json j =
  let str field = Option.bind (Json.member field j) to_str in
  let loc =
    match Json.member "location" j with
    | Some l -> (
        match
          ( Option.bind (Json.member "kind" l) to_str,
            Option.bind (Json.member "name" l) to_str )
        with
        | Some kind, Some name -> location_of_strings kind name
        | _ -> None)
    | None -> None
  in
  match
    ( str "rule",
      Option.bind (str "severity") Finding.severity_of_string,
      Option.bind (str "domain") domain_of_string,
      loc,
      str "message" )
  with
  | Some rule, Some severity, Some domain, Some location, Some message ->
      Ok { Finding.rule; severity; domain; location; message }
  | _ -> Error "finding object missing or malformed fields"

(* The ["findings"] array of a report document. *)
let findings_of_json j =
  match Json.member "findings" j with
  | None -> Error "report has no findings array"
  | Some arr ->
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match finding_of_json item with
            | Ok f -> collect (f :: acc) rest
            | Error _ as e -> e)
      in
      collect [] (match arr with Json.Arr l -> l | _ -> [])
