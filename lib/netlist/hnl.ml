module Gate_kind = Halotis_logic.Gate_kind
module Line_scan = Halotis_util.Line_scan
module Value = Halotis_logic.Value
module Diag = Halotis_util.Diag

type error = Diag.t = {
  severity : Diag.severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

let code = "netlist-parse" and hint = "see doc/FORMATS.md for the HNL grammar"
let fail line fmt = Diag.failf ~code ~hint ~line fmt

(* Token [i] as a signal: looked up in place, copied only when new. *)
let signal_at sc text b i =
  let a = Line_scan.start sc i in
  Builder.signal_sub b text a (Line_scan.stop sc i - a)

(* A tie operand's shared signal is named const_0/const_1, which a
   document may already have declared itself. *)
let tie b lineno v = try Builder.const b v with Invalid_argument m -> fail lineno "%s" m

let operand sc text b lineno i =
  let a = Line_scan.start sc i in
  let len = Line_scan.stop sc i - a in
  if len = 6 && Line_scan.is sc i "const0" then tie b lineno Value.L0
  else if len = 6 && Line_scan.is sc i "const1" then tie b lineno Value.L1
  else Builder.signal_sub b text a len

(* One gate line: gate NAME KIND OUT IN... ATTR..., where an attribute
   is vt<pin>=<float> or load=<float>.  The checks keep their order:
   every attribute parses before a token without '=' is reported, and
   pin ranges are checked after the operands resolve.  Operands resolve
   before the output, so signal ids follow first mention.  A line
   without attributes copies only the gate's name. *)
let gate_line sc text b lineno =
  let n = Line_scan.count sc in
  let kind =
    let a = Line_scan.start sc 2 in
    match Gate_kind.of_sub text a (Line_scan.stop sc 2 - a) with
    | Some k -> k
    | None -> fail lineno "unknown gate kind %S" (Line_scan.token sc 2)
  in
  let arity = Gate_kind.arity kind in
  if n - 4 < arity then
    fail lineno "gate %s: kind %s needs %d inputs" (Line_scan.token sc 1) (Line_scan.token sc 2)
      arity;
  let attrs = n > 4 + arity in
  let vt = if attrs then Array.make arity None else [||] and extra_load = ref None in
  let stray = ref None and bad_pin = ref None in
  for i = 4 + arity to n - 1 do
    let t = Line_scan.token sc i in
    match String.index_opt t '=' with
    | None -> if !stray = None then stray := Some t
    | Some e -> (
        let key = String.sub t 0 e and value = String.sub t (e + 1) (String.length t - e - 1) in
        let fvalue () =
          match float_of_string_opt value with
          | Some f -> f
          | None -> fail lineno "bad numeric attribute value %S" value
        in
        if key = "load" then extra_load := Some (fvalue ())
        else if String.length key > 2 && String.sub key 0 2 = "vt" then
          match int_of_string_opt (String.sub key 2 (String.length key - 2)) with
          | Some pin ->
              let v = fvalue () in
              if pin >= 0 && pin < arity then vt.(pin) <- Some v
              else if !bad_pin = None then bad_pin := Some pin
          | None -> fail lineno "bad attribute %S" t
        else fail lineno "unknown attribute %S" t)
  done;
  (match !stray with Some t -> fail lineno "unexpected token %S" t | None -> ());
  (* small arrays as literals, which allocate inline instead of through
     [Array.make]'s C call *)
  let inputs =
    match arity with 1 -> [| 0 |] | 2 -> [| 0; 0 |] | 3 -> [| 0; 0; 0 |] | n -> Array.make n 0
  in
  for k = 0 to arity - 1 do
    inputs.(k) <- operand sc text b lineno (4 + k)
  done;
  let output = signal_at sc text b 3 in
  (match !bad_pin with
  | Some p -> fail lineno "gate %s: vt pin %d out of range" (Line_scan.token sc 1) p
  | None -> ());
  (* without attributes, the Builder defaults are the same values *)
  let input_vt = if attrs then Some vt else None and name = Line_scan.token sc 1 in
  try ignore (Builder.add_gate b kind ~name ?input_vt ?extra_load:!extra_load ~inputs ~output)
  with Invalid_argument m -> fail lineno "%s" m

let parse_string text =
  let sc = Line_scan.create text in
  let builder = ref None and ended = ref false in
  let get_builder lineno =
    match !builder with Some b -> b | None -> fail lineno "missing 'circuit NAME' header"
  in
  try
    while Line_scan.next sc do
      let lineno = Line_scan.line sc and n = Line_scan.count sc in
      if n = 0 then ()
      else if !ended then fail lineno "content after 'end'"
      else if Line_scan.is sc 0 "gate" && n >= 4 then gate_line sc text (get_builder lineno) lineno
      else if Line_scan.is sc 0 "circuit" then begin
        if n <> 2 then fail lineno "usage: circuit NAME";
        if !builder <> None then fail lineno "duplicate 'circuit' header";
        builder := Some (Builder.create (Line_scan.token sc 1))
      end
      else if Line_scan.is sc 0 "input" then begin
        let b = get_builder lineno in
        if n = 1 then fail lineno "usage: input NAME...";
        for i = 1 to n - 1 do
          try ignore (Builder.input b (Line_scan.token sc i))
          with Invalid_argument m -> fail lineno "%s" m
        done
      end
      else if Line_scan.is sc 0 "output" then begin
        let b = get_builder lineno in
        if n = 1 then fail lineno "usage: output NAME...";
        for i = 1 to n - 1 do
          Builder.mark_output b (signal_at sc text b i)
        done
      end
      else if Line_scan.is sc 0 "end" && n = 1 then begin
        ignore (get_builder lineno);
        ended := true
      end
      else fail lineno "unknown directive %S" (Line_scan.token sc 0)
    done;
    match !builder with
    | None -> Diag.fail ~code ~hint "empty document"
    | Some _ when not !ended -> fail (Line_scan.line sc) "missing 'end'"
    | Some b -> ( try Ok (Builder.finalize b) with Invalid_argument m -> Diag.fail ~code ~hint m)
  with Diag.Fail e -> Error e

let to_string c =
  let buf = Buffer.create 1024 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "circuit %s\n" (Netlist.name c);
  let names kw = function
    | [] -> ()
    | ids -> pr "%s %s\n" kw (String.concat " " (List.map (Netlist.signal_name c) ids))
  in
  names "input" (Netlist.primary_inputs c);
  names "output" (Netlist.primary_outputs c);
  Array.iter
    (fun (g : Netlist.gate) ->
      let operand sid =
        let s = Netlist.signal c sid in
        match s.Netlist.constant with
        | Some Value.L0 -> "const0"
        | Some Value.L1 -> "const1"
        | Some (Value.X | Value.Z) | None -> s.Netlist.signal_name
      in
      let ins = Array.to_list (Array.map operand g.Netlist.fanin) in
      let attrs = Buffer.create 16 in
      Array.iteri
        (fun pin vt ->
          match vt with
          | Some v -> Printf.ksprintf (Buffer.add_string attrs) " vt%d=%g" pin v
          | None -> ())
        g.Netlist.input_vt;
      if g.Netlist.extra_load <> 0. then
        Printf.ksprintf (Buffer.add_string attrs) " load=%g" g.Netlist.extra_load;
      pr "gate %s %s %s %s%s\n" g.Netlist.gate_name
        (Gate_kind.name g.Netlist.kind)
        (Netlist.signal_name c g.Netlist.output)
        (String.concat " " ins) (Buffer.contents attrs))
    (Netlist.gates c);
  pr "end\n";
  Buffer.contents buf

