module Drive = Halotis_engine.Drive
module Transition = Halotis_wave.Transition
module Netlist = Halotis_netlist.Netlist
module Line_scan = Halotis_util.Line_scan
module Diag = Halotis_util.Diag

type error = Diag.t = {
  severity : Diag.severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

let fail line fmt =
  Diag.failf ~code:"stim-parse" ~hint:"stimulus lines look like `input a 0 1@2000 0@4000`" ~line
    fmt

type t = {
  slope : float;
  entries : (string * Drive.t) list;
  raw_changes : (string * (float * bool) list) list;
}

let parse_level lineno tok =
  match tok with
  | "0" -> false
  | "1" -> true
  | _ -> fail lineno "bad level %S (expected 0 or 1)" tok

let parse_change lineno tok =
  match String.index_opt tok '@' with
  | None -> fail lineno "bad change %S (expected LEVEL@TIME)" tok
  | Some i ->
      let level = parse_level lineno (String.sub tok 0 i) in
      let time_str = String.sub tok (i + 1) (String.length tok - i - 1) in
      (match float_of_string_opt time_str with
      | Some time when time >= 0. -> (time, level)
      | Some _ | None -> fail lineno "bad time %S" time_str)

let parse_string text =
  let sc = Line_scan.create text in
  try
    let slope = ref 100. and entries = ref [] and raws = ref [] and seen = Hashtbl.create 8 in
    while Line_scan.next sc do
      let lineno = Line_scan.line sc and n = Line_scan.count sc in
      let tok = Line_scan.token sc in
      if n = 0 then ()
      else if Line_scan.is sc 0 "slope" then begin
        if n <> 2 then fail lineno "usage: slope PICOSECONDS";
        match float_of_string_opt (tok 1) with
        | Some s when s > 0. -> slope := s
        | Some _ | None -> fail lineno "bad slope %S" (tok 1)
      end
      else if Line_scan.is sc 0 "input" then begin
        if n < 3 then fail lineno "usage: input NAME INITIAL [LEVEL@TIME...]";
        let name = tok 1 in
        if Hashtbl.mem seen name then fail lineno "duplicate input %S" name;
        Hashtbl.add seen name ();
        let initial = parse_level lineno (tok 2) in
        let changes = List.init (n - 3) (fun k -> parse_change lineno (tok (k + 3))) in
        entries := (name, Drive.of_levels ~slope:!slope ~initial changes) :: !entries;
        raws := (name, changes) :: !raws
      end
      else fail lineno "unknown directive %S" (tok 0)
    done;
    Ok { slope = !slope; entries = List.rev !entries; raw_changes = List.rev !raws }
  with Diag.Fail e -> Error e

let parse_file path = Diag.parse_file parse_string path

let to_string t =
  let buf = Buffer.create 256 in
  Printf.ksprintf (Buffer.add_string buf) "slope %g\n" t.slope;
  List.iter
    (fun (name, (d : Drive.t)) ->
      Printf.ksprintf (Buffer.add_string buf) "input %s %d" name
        (if d.Drive.initial then 1 else 0);
      let level = ref d.Drive.initial in
      List.iter
        (fun (tr : Transition.t) ->
          level := not !level;
          Printf.ksprintf (Buffer.add_string buf) " %d@%g"
            (if !level then 1 else 0)
            tr.Transition.start)
        d.Drive.transitions;
      Buffer.add_char buf '\n')
    t.entries;
  Buffer.contents buf

let bind t circuit =
  let rec resolve acc = function
    | [] -> Ok (List.rev acc)
    | (name, drive) :: rest -> (
        match Netlist.find_signal circuit name with
        | None -> Error (Printf.sprintf "stimulus names unknown signal %S" name)
        | Some sid ->
            if not (Netlist.signal circuit sid).Netlist.is_primary_input then
              Error (Printf.sprintf "stimulus entry %S is not a primary input" name)
            else resolve ((sid, drive) :: acc) rest)
  in
  resolve [] t.entries
