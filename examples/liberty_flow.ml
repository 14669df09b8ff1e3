(* The characterisation loop: export the built-in technology as a
   Liberty NLDM library, parse it back, fit the linear delay model from
   the tables, and check a simulation under the fitted technology is
   indistinguishable from the original.

   Run with:  dune exec examples/liberty_flow.exe *)

module G = Halotis_netlist.Generators
module N = Halotis_netlist.Netlist
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module Digital = Halotis_wave.Digital
module DL = Halotis_tech.Default_lib
module Gate_kind = Halotis_logic.Gate_kind
module Liberty = Halotis_liberty.Liberty
module Fit = Halotis_liberty.Fit
module Writer = Halotis_liberty.Writer

let () =
  (* 1. characterise: sample the linear model onto NLDM tables *)
  let kinds = Gate_kind.all_basic in
  let text = Writer.of_tech DL.tech ~kinds in
  Printf.printf "characterised %d cells into %d bytes of Liberty\n" (List.length kinds)
    (String.length text);

  (* 2. parse and inspect *)
  let lib =
    match Liberty.parse_string text with
    | Ok l -> l
    | Error e -> Format.kasprintf failwith "parse: %a" Halotis_util.Diag.pp e
  in
  (match Liberty.find_cell lib "nand2" with
  | Some cell ->
      (match Liberty.delay cell ~rising:true ~pin:"i0" ~slope:100. ~load:15. with
      | Some d -> Printf.printf "nand2 rise delay @ (slope 100 ps, load 15 fF) = %.1f ps\n" d
      | None -> print_endline "nand2 delay lookup failed");
      Printf.printf "nand2 input capacitance: %.1f fF\n"
        (List.assoc "i0" cell.Liberty.input_caps)
  | None -> print_endline "nand2 missing");

  (* 3. fit the linear model back from the tables *)
  let fitted_tech, qualities =
    Fit.to_tech ~base:DL.tech ~kind_of_cell:Fit.default_kind_of_cell lib
  in
  List.iter
    (fun (kind, q) ->
      Printf.printf "  fitted %-6s delay rmse %.3f ps, slope rmse %.3f ps\n"
        (Gate_kind.name kind) q.Fit.delay_rmse q.Fit.slope_rmse)
    qualities;

  (* 4. the fitted technology simulates identically *)
  let m = G.array_multiplier ~m:4 ~n:4 () in
  let drives =
    Halotis_stim.Vectors.multiplier_drives ~slope:100. ~period:5000. ~a_bits:m.G.ma_bits
      ~b_bits:m.G.mb_bits Halotis_stim.Vectors.paper_sequence_a
  in
  let r0 = Iddm.run (Iddm.config DL.tech) m.G.mult_circuit ~drives in
  let r1 = Iddm.run (Iddm.config fitted_tech) m.G.mult_circuit ~drives in
  let edges (r : Iddm.result) =
    Array.fold_left
      (fun acc w -> acc + Digital.edge_count w ~vt:(DL.vdd /. 2.))
      0 r.Iddm.waveforms
  in
  Printf.printf "\nmultiplier run: %d edges under the original library, %d under the fitted one\n"
    (edges r0) (edges r1);
  print_endline
    (if edges r0 = edges r1 then "-> identical, as expected for an exactly recovered model"
     else "-> DIFFER (unexpected)")
