module Gate_kind = Halotis_logic.Gate_kind
module Line_scan = Halotis_util.Line_scan

type error = { line : int; message : string }

let pp_error fmt e = Format.fprintf fmt "line %d: %s" e.line e.message

exception Parse_error of error

let fail line fmt = Format.kasprintf (fun message -> raise (Parse_error { line; message })) fmt

let strip s = String.trim s

(* "INPUT(G1)" -> Some ("INPUT", "G1") *)
let directive line =
  match String.index_opt line '(' with
  | None -> None
  | Some i ->
      if String.length line > 0 && line.[String.length line - 1] = ')' then
        Some
          ( String.uppercase_ascii (strip (String.sub line 0 i)),
            strip (String.sub line (i + 1) (String.length line - i - 2)) )
      else None

(* "G10 = NAND(G1, G3)" -> (out, fn, operands) *)
let assignment lineno line =
  match String.index_opt line '=' with
  | None -> fail lineno "expected '=' in %S" line
  | Some eq ->
      let out = strip (String.sub line 0 eq) in
      let rhs = strip (String.sub line (eq + 1) (String.length line - eq - 1)) in
      (match directive rhs with
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

let parse_string ?(name = "bench") text =
  let sc = Line_scan.create text in
  try
    let b = Builder.create name in
    let outputs = ref [] and gate_counter = ref 0 in
    while Line_scan.next sc do
      let lineno = Line_scan.line sc and n = Line_scan.count sc in
      let lo = if n = 0 then 0 else Line_scan.start sc 0 in
      let hi = if n = 0 then 0 else Line_scan.stop sc (n - 1) in
      (* the tokens' span; strip also drops form feeds, as .bench always has *)
      let line = strip (String.sub text lo (hi - lo)) in
      if line <> "" then begin
        match directive line with
        | Some ("INPUT", sig_name) -> (
            try ignore (Builder.input b sig_name) with Invalid_argument m -> fail lineno "%s" m)
        | Some ("OUTPUT", sig_name) -> outputs := sig_name :: !outputs
        | Some _ | None -> (
            let out, fn, operands = assignment lineno line in
            let kind = kind_of lineno fn (List.length operands) in
            let inputs = List.map (Builder.signal b) operands in
            let output = Builder.signal b out in
            incr gate_counter;
            let name = String.concat "" [ "g"; string_of_int !gate_counter; "_"; out ] in
            try ignore (Builder.add_gate b kind ~name ~inputs ~output)
            with Invalid_argument m -> fail lineno "%s" m)
      end
    done;
    List.iter (fun n -> Builder.mark_output b (Builder.signal b n)) (List.rev !outputs);
    try Ok (Builder.finalize b)
    with Invalid_argument m -> Error { line = 0; message = m }
  with Parse_error e -> Error e

let parse_file path =
  parse_string
    ~name:(Filename.remove_extension (Filename.basename path))
    (In_channel.with_open_text path In_channel.input_all)

let c17_text =
  {|# ISCAS-85 c17
INPUT(G1)
INPUT(G2)
INPUT(G3)
INPUT(G6)
INPUT(G7)
OUTPUT(G22)
OUTPUT(G23)
G10 = NAND(G1, G3)
G11 = NAND(G3, G6)
G16 = NAND(G2, G11)
G19 = NAND(G11, G7)
G22 = NAND(G10, G16)
G23 = NAND(G16, G19)
|}

let c17 =
  lazy
    (match parse_string ~name:"c17" c17_text with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "embedded c17 failed to parse: %a" pp_error e)

let to_string c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "# %s\n" (Netlist.name c);
  let exception Unsupported of string in
  try
    List.iter (fun sid -> pr "INPUT(%s)\n" (Netlist.signal_name c sid)) (Netlist.primary_inputs c);
    List.iter (fun sid -> pr "OUTPUT(%s)\n" (Netlist.signal_name c sid)) (Netlist.primary_outputs c);
    Array.iter
      (fun (s : Netlist.signal) ->
        if s.Netlist.constant <> None && Array.length s.Netlist.loads > 0 then
          raise (Unsupported "tie cells cannot be expressed in .bench"))
      (Netlist.signals c);
    Array.iter
      (fun (g : Netlist.gate) ->
        let fn =
          match g.Netlist.kind with
          | Halotis_logic.Gate_kind.Inv -> "NOT"
          | Halotis_logic.Gate_kind.Buf -> "BUFF"
          | Halotis_logic.Gate_kind.And _ -> "AND"
          | Halotis_logic.Gate_kind.Nand _ -> "NAND"
          | Halotis_logic.Gate_kind.Or _ -> "OR"
          | Halotis_logic.Gate_kind.Nor _ -> "NOR"
          | Halotis_logic.Gate_kind.Xor _ -> "XOR"
          | Halotis_logic.Gate_kind.Xnor _ -> "XNOR"
          | Halotis_logic.Gate_kind.Aoi21 | Halotis_logic.Gate_kind.Oai21
          | Halotis_logic.Gate_kind.Mux2 ->
              raise
                (Unsupported
                   (Printf.sprintf "complex cell %s cannot be expressed in .bench"
                      (Halotis_logic.Gate_kind.name g.Netlist.kind)))
        in
        let operands =
          Array.to_list (Array.map (Netlist.signal_name c) g.Netlist.fanin)
        in
        pr "%s = %s(%s)\n" (Netlist.signal_name c g.Netlist.output) fn
          (String.concat ", " operands))
      (Netlist.gates c);
    Ok (Buffer.contents buf)
  with Unsupported m -> Error m

let write_file path c =
  Result.map (fun text -> Out_channel.with_open_text path (fun oc -> output_string oc text)) (to_string c)
