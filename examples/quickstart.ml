(* Quickstart: build a tiny circuit, simulate it with the IDDM engine,
   and look at the results three ways (edge list, timing diagram, VCD).

   Run with:  dune exec examples/quickstart.exe *)

module Builder = Halotis_netlist.Builder
module Gate_kind = Halotis_logic.Gate_kind
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module Digital = Halotis_wave.Digital
module Vcd = Halotis_wave.Vcd
module Figures = Halotis_report.Figures
module Default_lib = Halotis_tech.Default_lib

let () =
  (* 1. Describe a circuit: y = nand (a, b) buffered through an
     inverter pair. *)
  let b = Builder.create "quickstart" in
  let a = Builder.input b "a" in
  let b_in = Builder.input b "b" in
  let n1 = Builder.signal b "n1" in
  let n2 = Builder.signal b "n2" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g1" ~inputs:[| a; b_in |] ~output:n1 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g2" ~inputs:[| n1 |] ~output:n2 in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"g3" ~inputs:[| n2 |] ~output:y in
  Builder.mark_output b y;
  let circuit = Builder.finalize b in
  Format.printf "circuit: %a@." Halotis_netlist.Netlist.pp_summary circuit;

  (* 2. Drive the inputs: [a] steps high at 1 ns; [b] carries a pulse. *)
  let drives =
    [
      (a, Drive.of_levels ~slope:100. ~initial:false [ (1000., true) ]);
      (b_in, Drive.of_levels ~slope:100. ~initial:true [ (3000., false); (3600., true) ]);
    ]
  in

  (* 3. Simulate with the degradation delay model (the default). *)
  let result = Iddm.run (Iddm.config Default_lib.tech) circuit ~drives in
  Format.printf "stats: %a@.@." Halotis_engine.Stats.pp result.Iddm.stats;

  (* 4a. Edge list of the output. *)
  let vt = Default_lib.vdd /. 2. in
  print_endline "edges on y (threshold VDD/2):";
  List.iter
    (fun e -> Format.printf "  %a@." Digital.pp_edge e)
    (Digital.edges (Iddm.waveform result "y") ~vt);

  (* 4b. ASCII timing diagram of everything. *)
  let lanes =
    List.map
      (fun name -> Figures.lane_of_waveform ~label:name ~vt (Iddm.waveform result name))
      [ "a"; "b"; "n1"; "n2"; "y" ]
  in
  print_newline ();
  print_string (Figures.timing_diagram ~width:80 ~t0:0. ~t1:6000. lanes);

  (* 4c. Export a VCD for a waveform viewer. *)
  let dumps =
    List.map
      (fun name -> Vcd.of_waveform ~name ~vt (Iddm.waveform result name))
      [ "a"; "b"; "n1"; "n2"; "y" ]
  in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "halotis_quickstart.vcd" in
  Vcd.write_file path dumps;
  Printf.printf "\nVCD written to %s\n" path
