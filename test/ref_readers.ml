(* The HNL, .bench and HSV readers as they were before the shared line
   scanner: every line split with [String.split_on_char] and
   [String.sub], tokens filtered through lists, and each gate attribute
   parsed twice.  The differential properties in [test_netlist.ml]
   check that the library readers agree with them on every input that
   contains no carriage return (the one place the library readers
   deliberately differ: CR is a blank there, a name byte here). *)

module Builder = Halotis_netlist.Builder
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

exception Parse_error of int * string

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error (line, message))) fmt

let tokenize line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun s -> s <> "")

let strip_comment line =
  match String.index_opt line '#' with None -> line | Some i -> String.sub line 0 i

module Hnl = struct
  type attr = Vt of int * float | Load of float

  let parse_attr lineno tok =
    match String.index_opt tok '=' with
    | None -> None
    | Some i ->
        let key = String.sub tok 0 i in
        let value = String.sub tok (i + 1) (String.length tok - i - 1) in
        let fvalue () =
          match float_of_string_opt value with
          | Some f -> f
          | None -> fail lineno "bad numeric attribute value %S" value
        in
        if key = "load" then Some (Load (fvalue ()))
        else if String.length key > 2 && String.sub key 0 2 = "vt" then begin
          match int_of_string_opt (String.sub key 2 (String.length key - 2)) with
          | Some pin -> Some (Vt (pin, fvalue ()))
          | None -> fail lineno "bad attribute %S" tok
        end
        else fail lineno "unknown attribute %S" tok

  let parse_string text : (Halotis_netlist.Netlist.t, Halotis_netlist.Hnl.error) result =
    let lines = String.split_on_char '\n' text in
    try
      let builder = ref None in
      let ended = ref false in
      let get_builder lineno =
        match !builder with
        | Some b -> b
        | None -> fail lineno "missing 'circuit NAME' header"
      in
      List.iteri
        (fun idx raw ->
          let lineno = idx + 1 in
          let tokens = tokenize (strip_comment raw) in
          match tokens with
          | [] -> ()
          | _ when !ended -> fail lineno "content after 'end'"
          | [ "circuit"; name ] ->
              if !builder <> None then fail lineno "duplicate 'circuit' header";
              builder := Some (Builder.create name)
          | "circuit" :: _ -> fail lineno "usage: circuit NAME"
          | "input" :: names ->
              let b = get_builder lineno in
              if names = [] then fail lineno "usage: input NAME...";
              List.iter
                (fun n ->
                  try ignore (Builder.input b n)
                  with Invalid_argument m -> fail lineno "%s" m)
                names
          | "output" :: names ->
              let b = get_builder lineno in
              if names = [] then fail lineno "usage: output NAME...";
              List.iter (fun n -> Builder.mark_output b (Builder.signal b n)) names
          | "gate" :: name :: kind_name :: out :: rest ->
              let b = get_builder lineno in
              let kind =
                match Gate_kind.of_name kind_name with
                | Some k -> k
                | None -> fail lineno "unknown gate kind %S" kind_name
              in
              let arity = Gate_kind.arity kind in
              let rec split_ins acc n = function
                | tok :: rest when n > 0 -> split_ins (tok :: acc) (n - 1) rest
                | rest -> (List.rev acc, rest)
              in
              let ins, attr_toks = split_ins [] arity rest in
              if List.length ins <> arity then
                fail lineno "gate %s: kind %s needs %d inputs" name kind_name arity;
              let attrs = List.filter_map (parse_attr lineno) attr_toks in
              let leftovers =
                List.filter (fun tok -> parse_attr lineno tok = None) attr_toks
              in
              (match leftovers with
              | [] -> ()
              | tok :: _ -> fail lineno "unexpected token %S" tok);
              let operand tok =
                match tok with
                | "const0" -> Builder.const b Value.L0
                | "const1" -> Builder.const b Value.L1
                | _ -> Builder.signal b tok
              in
              let inputs = List.map operand ins in
              let output = Builder.signal b out in
              let vt = Array.make arity None in
              let extra_load = ref 0. in
              List.iter
                (function
                  | Vt (pin, v) ->
                      if pin < 0 || pin >= arity then
                        fail lineno "gate %s: vt pin %d out of range" name pin;
                      vt.(pin) <- Some v
                  | Load l -> extra_load := l)
                attrs;
              (try
                 ignore
                   (Builder.add_gate b kind ~name ~input_vt:(Array.to_list vt)
                      ~extra_load:!extra_load ~inputs ~output)
               with Invalid_argument m -> fail lineno "%s" m)
          | [ "end" ] ->
              ignore (get_builder lineno);
              ended := true
          | tok :: _ -> fail lineno "unknown directive %S" tok)
        lines;
      match !builder with
      | None -> Error { line = 0; message = "empty document" }
      | Some b ->
          if not !ended then Error { line = List.length lines; message = "missing 'end'" }
          else begin
            try Ok (Builder.finalize b)
            with Invalid_argument m -> Error { line = 0; message = m }
          end
    with Parse_error (line, message) -> Error { line; message }
end

module Iscas = struct
  let strip s = String.trim s

  let directive line =
    match String.index_opt line '(' with
    | None -> None
    | Some i ->
        if String.length line > 0 && line.[String.length line - 1] = ')' then
          Some
            ( String.uppercase_ascii (strip (String.sub line 0 i)),
              strip (String.sub line (i + 1) (String.length line - i - 2)) )
        else None

  let assignment lineno line =
    match String.index_opt line '=' with
    | None -> fail lineno "expected '=' in %S" line
    | Some eq -> (
        let out = strip (String.sub line 0 eq) in
        let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
        match directive rhs with
        | Some (fn, args) ->
            let operands = List.map strip (String.split_on_char ',' args) in
            (out, fn, List.filter (fun s -> s <> "") operands)
        | None -> fail lineno "expected FUNC(args) on the right of %S" line)

  let kind_of lineno fn arity =
    match (fn, arity) with
    | "NOT", 1 -> Gate_kind.Inv
    | "BUFF", 1 | "BUF", 1 -> Gate_kind.Buf
    | "NOT", n | "BUFF", n | "BUF", n -> fail lineno "%s expects one operand, got %d" fn n
    | "AND", n when n >= 2 -> Gate_kind.And n
    | "NAND", n when n >= 2 -> Gate_kind.Nand n
    | "OR", n when n >= 2 -> Gate_kind.Or n
    | "NOR", n when n >= 2 -> Gate_kind.Nor n
    | "XOR", n when n >= 2 -> Gate_kind.Xor n
    | "XNOR", n when n >= 2 -> Gate_kind.Xnor n
    | ("AND" | "NAND" | "OR" | "NOR" | "XOR" | "XNOR"), n ->
        fail lineno "%s expects at least two operands, got %d" fn n
    | _, _ -> fail lineno "unknown function %S" fn

  let parse_string ?(name = "bench") text :
      (Halotis_netlist.Netlist.t, Halotis_netlist.Iscas.error) result =
    let lines = String.split_on_char '\n' text in
    try
      let b = Builder.create name in
      let outputs = ref [] in
      let gate_counter = ref 0 in
      List.iteri
        (fun idx raw ->
          let lineno = idx + 1 in
          let line = strip (strip_comment raw) in
          if line <> "" then begin
            match directive line with
            | Some ("INPUT", sig_name) -> (
                try ignore (Builder.input b sig_name)
                with Invalid_argument m -> fail lineno "%s" m)
            | Some ("OUTPUT", sig_name) -> outputs := sig_name :: !outputs
            | Some _ | None ->
                let out, fn, operands = assignment lineno line in
                let kind = kind_of lineno fn (List.length operands) in
                let inputs = List.map (Builder.signal b) operands in
                let output = Builder.signal b out in
                incr gate_counter;
                (try
                   ignore
                     (Builder.add_gate b kind
                        ~name:(Printf.sprintf "g%d_%s" !gate_counter out)
                        ~inputs ~output)
                 with Invalid_argument m -> fail lineno "%s" m)
          end)
        lines;
      List.iter (fun n -> Builder.mark_output b (Builder.signal b n)) (List.rev !outputs);
      try Ok (Builder.finalize b)
      with Invalid_argument m -> Error { line = 0; message = m }
    with Parse_error (line, message) -> Error { line; message }
end

module Stimfile = struct
  module Drive = Halotis_engine.Drive
  module S = Halotis_stim.Stimfile

  let parse_level lineno tok =
    match tok with
    | "0" -> false
    | "1" -> true
    | _ -> fail lineno "bad level %S (expected 0 or 1)" tok

  let parse_change lineno tok =
    match String.index_opt tok '@' with
    | None -> fail lineno "bad change %S (expected LEVEL@TIME)" tok
    | Some i -> (
        let level = parse_level lineno (String.sub tok 0 i) in
        let time_str = String.sub tok (i + 1) (String.length tok - i - 1) in
        match float_of_string_opt time_str with
        | Some time when time >= 0. -> (time, level)
        | Some _ | None -> fail lineno "bad time %S" time_str)

  let parse_string text : (S.t, S.error) result =
    let lines = String.split_on_char '\n' text in
    try
      let slope = ref 100. in
      let entries = ref [] in
      let raws = ref [] in
      let seen = Hashtbl.create 8 in
      List.iteri
        (fun idx raw ->
          let lineno = idx + 1 in
          match tokenize (strip_comment raw) with
          | [] -> ()
          | [ "slope"; v ] -> (
              match float_of_string_opt v with
              | Some s when s > 0. -> slope := s
              | Some _ | None -> fail lineno "bad slope %S" v)
          | "slope" :: _ -> fail lineno "usage: slope PICOSECONDS"
          | "input" :: name :: initial :: changes ->
              if Hashtbl.mem seen name then fail lineno "duplicate input %S" name;
              Hashtbl.add seen name ();
              let initial = parse_level lineno initial in
              let changes = List.map (parse_change lineno) changes in
              let drive = Drive.of_levels ~slope:!slope ~initial changes in
              entries := (name, drive) :: !entries;
              raws := (name, changes) :: !raws
          | [ "input" ] | [ "input"; _ ] ->
              fail lineno "usage: input NAME INITIAL [LEVEL@TIME...]"
          | tok :: _ -> fail lineno "unknown directive %S" tok)
        lines;
      Ok
        {
          S.slope = !slope;
          entries = List.rev !entries;
          raw_changes = List.rev !raws;
        }
    with Parse_error (line, message) -> Error { line; message }
end
