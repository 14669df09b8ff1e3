(* Working with the HNL netlist format: parse a circuit from text,
   check it structurally, simulate it, and print it back.

   Run with:  dune exec examples/netlist_io.exe *)

module N = Halotis_netlist.Netlist
module Hnl = Halotis_netlist.Hnl
module Check = Halotis_netlist.Check
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module Digital = Halotis_wave.Digital
module DL = Halotis_tech.Default_lib

let source =
  {|# a 2-bit equality comparator: eq = (a0 xnor b0) and (a1 xnor b1)
circuit eq2
input a0 a1 b0 b1
output eq
gate x0 xnor2 m0 a0 b0
gate x1 xnor2 m1 a1 b1
gate g  and2  eq m0 m1
end
|}

let () =
  let circuit =
    match Hnl.parse_string source with
    | Ok c -> c
    | Error e -> Format.kasprintf failwith "parse error: %a" Halotis_util.Diag.pp e
  in
  Format.printf "parsed: %a@." N.pp_summary circuit;

  (* structural checks *)
  (match Check.structural_issues circuit with
  | [] -> print_endline "structure: clean"
  | issues ->
      List.iter (fun i -> Format.printf "issue: %a@." (Check.pp_issue circuit) i) issues);
  (match Check.depth circuit with
  | Some d -> Printf.printf "logic depth: %d\n" d
  | None -> print_endline "combinational cycle!");

  (* simulate: a = 2 constant, b sweeps 0..3 every 3 ns *)
  let sid name = match N.find_signal circuit name with Some s -> s | None -> assert false in
  let bit v i = (v lsr i) land 1 = 1 in
  let b_values = [ 0; 1; 2; 3 ] in
  let drives =
    [
      (sid "a0", Drive.constant false);
      (sid "a1", Drive.constant true);
      (sid "b0",
       Drive.of_levels ~slope:100. ~initial:(bit 0 0)
         (List.mapi (fun k v -> (float_of_int (k + 1) *. 3000., bit v 0)) (List.tl b_values)));
      (sid "b1",
       Drive.of_levels ~slope:100. ~initial:(bit 0 1)
         (List.mapi (fun k v -> (float_of_int (k + 1) *. 3000., bit v 1)) (List.tl b_values)));
    ]
  in
  let r = Iddm.run (Iddm.config DL.tech) circuit ~drives in
  let vt = DL.vdd /. 2. in
  List.iteri
    (fun k v ->
      let t = (float_of_int (k + 1) *. 3000.) -. 1. in
      let eq = Digital.level_at (Iddm.waveform r "eq") ~vt t in
      Printf.printf "a=2 b=%d -> eq=%b%s\n" v eq (if eq = (v = 2) then "" else "  WRONG"))
    b_values;

  (* print the circuit back *)
  print_newline ();
  print_endline "round-tripped HNL:";
  print_string (Hnl.to_string circuit)
