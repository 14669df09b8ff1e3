module Gate_kind = Halotis_logic.Gate_kind
module Line_scan = Halotis_util.Line_scan
module Diag = Halotis_util.Diag

let code = "iscas-parse" and hint = "ISCAS-85 lines look like `G10 = NAND(G1, G3)`"
let fail line fmt = Diag.failf ~code ~hint ~line fmt

(* The readers work on slices [a, b) of the text: a line is the span of
   its tokens, and a name or a function is copied only when it is new
   or quoted in an error.  Trimming drops [String.trim]'s blanks, form
   feeds included, as .bench files have them. *)
let is_blank = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false
let rec trim_start text a b = if a < b && is_blank text.[a] then trim_start text (a + 1) b else a
let rec trim_stop text a b = if b > a && is_blank text.[b - 1] then trim_stop text a (b - 1) else b
let rec index text a b c = if a = b then -1 else if text.[a] = c then a else index text (a + 1) b c
let sub text a b = String.sub text a (b - a)

let rec upper_from text a kw j =
  j = String.length kw
  || (Char.uppercase_ascii text.[a + j] = kw.[j] && upper_from text a kw (j + 1))

(* [text.[a .. b - 1]], upper-cased, is [kw] *)
let is_upper text a b kw = b - a = String.length kw && upper_from text a kw 0

let fn_name text a b = String.uppercase_ascii (sub text a b)

let families =
  [|
    ("AND", fun n -> Gate_kind.And n);
    ("NAND", fun n -> Gate_kind.Nand n);
    ("OR", fun n -> Gate_kind.Or n);
    ("NOR", fun n -> Gate_kind.Nor n);
    ("XOR", fun n -> Gate_kind.Xor n);
    ("XNOR", fun n -> Gate_kind.Xnor n);
  |]

let rec family text a b f =
  if f = Array.length families || is_upper text a b (fst families.(f)) then f
  else family text a b (f + 1)

(* The gate kind of the function [a, b) with [n] operands. *)
let kind_of lineno text a b n =
  let inv = is_upper text a b "NOT" in
  if inv || is_upper text a b "BUFF" || is_upper text a b "BUF" then
    if n <> 1 then fail lineno "%s expects one operand, got %d" (fn_name text a b) n
    else if inv then Gate_kind.Inv
    else Gate_kind.Buf
  else
    let f = family text a b 0 in
    if f = Array.length families then fail lineno "unknown function %S" (fn_name text a b)
    else if n < 2 then fail lineno "%s expects at least two operands, got %d" (fn_name text a b) n
    else snd families.(f) n

(* The comma-separated operands in [a, b), trimmed, empty ones skipped:
   their count, or with [ids] each one's signal, in order. *)
let operands builder text a b ids =
  let k = ref 0 and s = ref a in
  while !s <= b do
    let e = match index text !s b ',' with -1 -> b | c -> c in
    let fa = trim_start text !s e in
    let fb = trim_stop text fa e in
    if fb > fa then begin
      if Array.length ids > 0 then ids.(!k) <- Builder.signal_sub builder text fa (fb - fa);
      incr k
    end;
    s := e + 1
  done;
  !k

(* OUT = FUNC(ARG, ...) on the line [a, b) *)
let assignment lineno builder counter text a b =
  let eq = index text a b '=' in
  if eq < 0 then fail lineno "expected '=' in %S" (sub text a b);
  let oa = trim_start text a eq in
  let ob = trim_stop text oa eq in
  let ra = trim_start text (eq + 1) b in
  let rb = trim_stop text ra b in
  let p = index text ra rb '(' in
  if p < 0 || text.[rb - 1] <> ')' then
    fail lineno "expected FUNC(args) on the right of %S" (sub text a b);
  let fa = trim_start text ra p in
  let fb = trim_stop text fa p in
  let aa = trim_start text (p + 1) (rb - 1) in
  let ab = trim_stop text aa (rb - 1) in
  let kind = kind_of lineno text fa fb (operands builder text aa ab [||]) in
  let inputs = Array.make (Gate_kind.arity kind) 0 in
  ignore (operands builder text aa ab inputs);
  let output = Builder.signal_sub builder text oa (ob - oa) in
  let name = String.concat "" [ "g"; string_of_int counter; "_"; sub text oa ob ] in
  try ignore (Builder.add_gate builder kind ~name ~inputs ~output)
  with Invalid_argument m -> fail lineno "%s" m

(* The line [a, z), whose first '(' is at [p] (or [p] is -1), is
   KW(NAME) for a keyword [kw] in any case. *)
let is_directive text a z p kw =
  p >= 0
  && text.[z - 1] = ')'
  &&
  let fb = trim_stop text a p in
  is_upper text (trim_start text a fb) fb kw

(* the NAME of such a line *)
let directive_arg text z p =
  let na = trim_start text (p + 1) (z - 1) in
  sub text na (trim_stop text na (z - 1))

let parse_string ?(name = "bench") text =
  let sc = Line_scan.create text in
  try
    let b = Builder.create name in
    let outputs = ref [] and gate_counter = ref 0 in
    while Line_scan.next sc do
      let lineno = Line_scan.line sc and n = Line_scan.count sc in
      let last = if n = 0 then 0 else Line_scan.stop sc (n - 1) in
      let a = if n = 0 then 0 else trim_start text (Line_scan.start sc 0) last in
      let z = trim_stop text a last in
      if z > a then begin
        let p = index text a z '(' in
        if is_directive text a z p "INPUT" then (
          try ignore (Builder.input b (directive_arg text z p))
          with Invalid_argument m -> fail lineno "%s" m)
        else if is_directive text a z p "OUTPUT" then outputs := directive_arg text z p :: !outputs
        else begin
          incr gate_counter;
          assignment lineno b !gate_counter text a z
        end
      end
    done;
    List.iter (fun n -> Builder.mark_output b (Builder.signal b n)) (List.rev !outputs);
    try Ok (Builder.finalize b) with Invalid_argument m -> Diag.fail ~code ~hint m
  with Diag.Fail e -> Error e

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
    | Error e -> failwith ("embedded c17 failed to parse: " ^ Diag.to_string e))

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
