(* The paper's Fig. 1 scenario, end to end: a degraded pulse reaches a
   low-threshold gate but not a high-threshold one driven by the very
   same signal — something a classical inertial-delay simulator cannot
   express, because it filters pulses at the *driver*.

   Run with:  dune exec examples/glitch_filtering.exe *)

module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module Digital = Halotis_wave.Digital
module Waveform = Halotis_wave.Waveform
module Figures = Halotis_report.Figures
module Sim = Halotis_analog.Sim
module DL = Halotis_tech.Default_lib

let width = 225.

let () =
  let f = G.fig1_circuit () in
  (* g1's input threshold is 1.5 V, g2's is 4.0 V; both watch out0. *)
  let drives = [ (f.G.sig_in, Drive.pulse ~slope:100. ~at:1000. ~width ()) ] in

  Printf.printf "input pulse: %.0f ps wide\n\n" width;

  (* IDDM: per-input thresholds decide who sees the runt. *)
  let r = Iddm.run (Iddm.config DL.tech) f.G.circuit ~drives in
  let vt = DL.vdd /. 2. in
  let runt_peaks =
    Digital.runts (Iddm.waveform r "out0")
    |> List.map (fun (ru : Digital.runt) -> ru.Digital.peak)
  in
  Printf.printf "IDDM: out0 runt peak(s): %s V\n"
    (String.concat ", " (List.map (Printf.sprintf "%.2f") runt_peaks));
  let count name = Digital.edge_count (Iddm.waveform r name) ~vt in
  Printf.printf "IDDM: out1c edges = %d (g1, VT 1.5 V)  |  out2c edges = %d (g2, VT 4.0 V)\n"
    (count "out1c") (count "out2c");

  (* The electrical reference agrees. *)
  let ra = Sim.run (Sim.config ~t_stop:6000. DL.tech) f.G.circuit ~drives in
  Printf.printf "analog: out1c edges = %d  |  out2c edges = %d\n"
    (List.length (Sim.edges ra "out1c"))
    (List.length (Sim.edges ra "out2c"));

  (* The classical inertial model treats both branches identically. *)
  let rc = Classic.run (Classic.config DL.tech) f.G.circuit ~drives in
  Printf.printf "classical: out1c edges = %d  |  out2c edges = %d  <- cannot discriminate\n\n"
    (List.length (Classic.edges_of_name rc "out1c"))
    (List.length (Classic.edges_of_name rc "out2c"));

  (* Show the runt against the two thresholds. *)
  let tr = Sim.trace ra "out0" in
  print_endline "out0 (analog reference; '*' marks the waveform, 5 rows = 0..5 V):";
  print_string
    (Figures.voltage_lane ~width:80 ~t0:800. ~t1:3000. ~vdd:DL.vdd ~label:"out0"
       (fun t -> Sim.value_at tr t));
  print_endline "-> the runt tops out between VT1 = 1.5 V and VT2 = 4.0 V.";

  print_newline ();
  print_endline "IDDM timing diagram:";
  let lanes =
    List.map
      (fun n -> Figures.lane_of_waveform ~label:n ~vt (Iddm.waveform r n))
      [ "in"; "out0"; "out1"; "out1c"; "out2"; "out2c" ]
  in
  print_string (Figures.timing_diagram ~width:80 ~t0:500. ~t1:4000. lanes)
