type arc = {
  related_pin : string;
  cell_rise : Table2d.t option;
  cell_fall : Table2d.t option;
  rise_transition : Table2d.t option;
  fall_transition : Table2d.t option;
}

type cell = {
  cell_name : string;
  output_pin : string;
  input_caps : (string * float) list;
  arcs : arc list;
}

type t = { lib_name : string; cells : cell list }

module Diag = Halotis_util.Diag

(* every error names the line of the group it is about *)
let fail (g : Ast.group) fmt = Diag.failf ~code:"liberty-parse" ~line:g.Ast.g_line fmt

let floats_of_strings g where strings =
  List.concat_map
    (fun s ->
      String.split_on_char ',' s
      |> List.map String.trim
      |> List.filter (fun x -> x <> "")
      |> List.map (fun x ->
             match float_of_string_opt x with
             | Some f -> f
             | None -> fail g "%s: bad number %S" where x))
    strings

let table_of_group (g : Ast.group) =
  let index name =
    match Ast.find_complex g name with
    | Some args -> Array.of_list (floats_of_strings g name args)
    | None -> fail g "table %s: missing %s" g.Ast.g_name name
  in
  let index1 = index "index_1" and index2 = index "index_2" in
  let rows =
    match Ast.find_complex g "values" with
    | Some args -> List.map (fun row -> Array.of_list (floats_of_strings g "values" [ row ])) args
    | None -> fail g "table %s: missing values" g.Ast.g_name
  in
  try Table2d.make ~index1 ~index2 ~values:(Array.of_list rows)
  with Invalid_argument m -> fail g "table %s: %s" g.Ast.g_name m

let arc_of_timing (timing : Ast.group) =
  let related_pin =
    match Ast.find_attr timing "related_pin" with
    | Some p -> p
    | None -> fail timing "timing group without related_pin"
  in
  let table name =
    match Ast.find_groups timing name with
    | [ g ] -> Some (table_of_group g)
    | [] -> None
    | _ :: _ :: _ -> fail timing "duplicate %s table" name
  in
  {
    related_pin;
    cell_rise = table "cell_rise";
    cell_fall = table "cell_fall";
    rise_transition = table "rise_transition";
    fall_transition = table "fall_transition";
  }

let cell_of_group (cg : Ast.group) =
  let cell_name = match cg.Ast.g_args with n :: _ -> n | [] -> fail cg "cell without a name" in
  let pins = Ast.find_groups cg "pin" in
  let pin_name (p : Ast.group) =
    match p.Ast.g_args with n :: _ -> n | [] -> fail p "pin without a name"
  in
  let input_caps =
    List.filter_map
      (fun p ->
        match Ast.find_attr p "direction" with
        | Some "input" ->
            let cap =
              match Ast.find_attr p "capacitance" with
              | Some c -> (
                  match float_of_string_opt c with
                  | Some f -> f
                  | None -> fail p "cell %s: bad capacitance %S" cell_name c)
              | None -> 0.
            in
            Some (pin_name p, cap)
        | Some _ | None -> None)
      pins
  in
  let output =
    List.find_opt
      (fun p ->
        Ast.find_attr p "direction" = Some "output" || Ast.find_groups p "timing" <> [])
      pins
  in
  match output with
  | None -> None
  | Some out ->
      (* Cells with an output pin but no timing groups are kept with
         [arcs = []] so static analysis can flag them; consumers that
         need tables ([Fit.to_tech]) skip them. *)
      let arcs = List.map arc_of_timing (Ast.find_groups out "timing") in
      Some { cell_name; output_pin = pin_name out; input_caps; arcs }

let of_ast (g : Ast.group) =
  try
    if g.Ast.g_name <> "library" then fail g "expected a library group, got %s" g.Ast.g_name;
    let lib_name = match g.Ast.g_args with n :: _ -> n | [] -> "unnamed" in
    let cells = List.filter_map cell_of_group (Ast.find_groups g "cell") in
    Ok { lib_name; cells }
  with Diag.Fail e -> Error e

let parse_string text = Result.bind (Ast.parse_string text) of_ast

let parse_file path = Diag.parse_file parse_string path

let find_cell t name = List.find_opt (fun c -> c.cell_name = name) t.cells

let arc_for cell pin = List.find_opt (fun a -> a.related_pin = pin) cell.arcs

let delay cell ~rising ~pin ~slope ~load =
  match arc_for cell pin with
  | None -> None
  | Some arc -> (
      match if rising then arc.cell_rise else arc.cell_fall with
      | Some table -> Some (Table2d.lookup table slope load)
      | None -> None)
