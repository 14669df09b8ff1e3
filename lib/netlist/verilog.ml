module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '$' -> true | _ -> false)
       s

let ident s = if is_plain_ident s then s else "\\" ^ s ^ " "

let to_string c =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sig_name sid = ident (Netlist.signal_name c sid) in
  let inputs = Netlist.primary_inputs c in
  let outputs = Netlist.primary_outputs c in
  let ports = List.map sig_name (inputs @ outputs) in
  pr "// generated by HALOTIS from circuit %s\n" (Netlist.name c);
  pr "module %s (%s);\n" (ident (Netlist.name c)) (String.concat ", " ports);
  List.iter (fun sid -> pr "  input %s;\n" (sig_name sid)) inputs;
  List.iter (fun sid -> pr "  output %s;\n" (sig_name sid)) outputs;
  (* wires: everything that is neither port nor... outputs can be driven
     wires in Verilog; declare wires for internal signals only *)
  Array.iter
    (fun (s : Netlist.signal) ->
      if (not s.Netlist.is_primary_input) && not s.Netlist.is_primary_output then
        pr "  wire %s;\n" (ident s.Netlist.signal_name))
    (Netlist.signals c);
  (* constants *)
  Array.iter
    (fun (s : Netlist.signal) ->
      match s.Netlist.constant with
      | Some Value.L0 -> pr "  assign %s = 1'b0;\n" (ident s.Netlist.signal_name)
      | Some Value.L1 -> pr "  assign %s = 1'b1;\n" (ident s.Netlist.signal_name)
      | Some (Value.X | Value.Z) | None -> ())
    (Netlist.signals c);
  let fresh_counter = ref 0 in
  let fresh_wire hint =
    incr fresh_counter;
    let name = Printf.sprintf "halotis_%s_%d" hint !fresh_counter in
    pr "  wire %s;\n" name;
    name
  in
  Array.iter
    (fun (g : Netlist.gate) ->
      let out = sig_name g.Netlist.output in
      let pins = Array.to_list (Array.map sig_name g.Netlist.fanin) in
      let gname = ident g.Netlist.gate_name in
      let attrs =
        let vt =
          Array.to_list g.Netlist.input_vt
          |> List.mapi (fun pin v ->
                 match v with Some x -> Printf.sprintf " vt%d=%g" pin x | None -> "")
          |> String.concat ""
        in
        if vt = "" && g.Netlist.extra_load = 0. then ""
        else
          Printf.sprintf " //%s%s" vt
            (if g.Netlist.extra_load = 0. then ""
             else Printf.sprintf " load=%g" g.Netlist.extra_load)
      in
      let prim name =
        pr "  %s %s (%s);%s\n" name gname (String.concat ", " (out :: pins)) attrs
      in
      match g.Netlist.kind with
      | Gate_kind.Inv -> prim "not"
      | Gate_kind.Buf -> prim "buf"
      | Gate_kind.And _ -> prim "and"
      | Gate_kind.Nand _ -> prim "nand"
      | Gate_kind.Or _ -> prim "or"
      | Gate_kind.Nor _ -> prim "nor"
      | Gate_kind.Xor _ -> prim "xor"
      | Gate_kind.Xnor _ -> prim "xnor"
      | Gate_kind.Aoi21 -> (
          match pins with
          | [ a; b; cc ] ->
              let t = fresh_wire "aoi" in
              pr "  and %s_a (%s, %s, %s);\n" gname t a b;
              pr "  nor %s (%s, %s, %s);%s\n" gname out t cc attrs
          | _ -> assert false)
      | Gate_kind.Oai21 -> (
          match pins with
          | [ a; b; cc ] ->
              let t = fresh_wire "oai" in
              pr "  or %s_o (%s, %s, %s);\n" gname t a b;
              pr "  nand %s (%s, %s, %s);%s\n" gname out t cc attrs
          | _ -> assert false)
      | Gate_kind.Mux2 -> (
          match pins with
          | [ a; b; s ] ->
              let ns = fresh_wire "muxn" in
              let t1 = fresh_wire "muxa" in
              let t2 = fresh_wire "muxb" in
              pr "  not %s_n (%s, %s);\n" gname ns s;
              pr "  and %s_a (%s, %s, %s);\n" gname t1 a ns;
              pr "  and %s_b (%s, %s, %s);\n" gname t2 b s;
              pr "  or %s (%s, %s, %s);%s\n" gname out t1 t2 attrs
          | _ -> assert false))
    (Netlist.gates c);
  pr "endmodule\n";
  Buffer.contents buf
