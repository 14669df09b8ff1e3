(* FIG1 — "Inertial delay wrong results" (paper Fig. 1).

   A degraded pulse on out0 drives two inverters with different input
   thresholds (VT1 = 1.5 V, VT2 = 3.5 V).  The electrical reference and
   HALOTIS-DDM propagate it into the low-threshold branch only; the
   classical inertial-delay model cannot tell the branches apart. *)

open Common

let pulse_width = 225.

let run_width width =
  let f = G.fig1_circuit () in
  let drives c_in = [ (c_in, Drive.pulse ~slope:input_slope ~at:1000. ~width ()) ] in
  let r = Iddm.run (Iddm.config DL.tech) f.G.circuit ~drives:(drives f.G.sig_in) in
  let rc = Classic.run (Classic.config DL.tech) f.G.circuit ~drives:(drives f.G.sig_in) in
  let ra =
    Sim.run (Sim.config ~t_stop:6000. DL.tech) f.G.circuit ~drives:(drives f.G.sig_in)
  in
  (f, r, rc, ra)

let edge_counts (f, r, rc, ra) =
  let iddm name = D.edge_count (Iddm.waveform r name) ~vt:vdd2 in
  let classic name = List.length (Classic.edges_of_name rc name) in
  let analog name = List.length (Sim.edges ra name) in
  ignore f;
  (iddm, classic, analog)

let print_waveforms (f, r, rc, ra) =
  let names = [ "in"; "out0"; "out1"; "out1c"; "out2"; "out2c" ] in
  let t0 = 500. and t1 = 4000. in
  print_endline "HALOTIS-DDM (digital view, VT = VDD/2):";
  let lanes =
    List.map (fun n -> Figures.lane_of_waveform ~label:n ~vt:vdd2 (Iddm.waveform r n)) names
  in
  print_string (Figures.timing_diagram ~width:90 ~t0 ~t1 lanes);
  print_endline "analog reference, out0 voltage (runt between VT1 and VT2):";
  let tr = Sim.trace ra "out0" in
  print_string
    (Figures.voltage_lane ~width:90 ~t0 ~t1 ~vdd:DL.vdd ~label:"out0" (fun t ->
         Sim.value_at tr t));
  print_endline "classical inertial model (boolean view):";
  let lanes_c =
    List.map
      (fun n ->
        let sid = match N.find_signal f.G.circuit n with Some s -> s | None -> assert false in
        Figures.lane_of_edges ~label:n ~initial:rc.Classic.initial_levels.(sid)
          (Lazy.force rc.Classic.edges).(sid))
      names
  in
  print_string (Figures.timing_diagram ~width:90 ~t0 ~t1 lanes_c)

let run () =
  section "FIG1 -- inertial delay wrong results (Fig. 1)";
  Printf.printf "input pulse width %.0f ps, slope %.0f ps, VT1 = 1.5 V, VT2 = 3.5 V\n\n"
    pulse_width input_slope;
  let state = run_width pulse_width in
  print_waveforms state;
  let iddm, classic, analog = edge_counts state in
  let row label f =
    [ label; string_of_int (f "out1c"); string_of_int (f "out2c") ]
  in
  let table =
    Table.make
      ~header:[ "engine"; "out1c edges (low VT)"; "out2c edges (high VT)" ]
      ~rows:[ row "analog reference" analog; row "HALOTIS-DDM" iddm; row "classical inertial" classic ]
  in
  print_newline ();
  Table.print table;
  (* the discrimination bands per engine, for the record *)
  let discriminating f = f "out1c" = 2 && f "out2c" = 0 in
  let band engine_of =
    List.filter
      (fun w ->
        let st = run_width w in
        let i, c, a = edge_counts st in
        discriminating (match engine_of with `I -> i | `C -> c | `A -> a))
      [ 150.; 175.; 200.; 225.; 250.; 275.; 300. ]
  in
  let show band = String.concat "," (List.map (Printf.sprintf "%.0f") band) in
  let iddm_band = band `I and classic_band = band `C and analog_band = band `A in
  Printf.printf "\ndiscriminating widths (ps): iddm=[%s] analog=[%s] classical=[%s]\n"
    (show iddm_band) (show analog_band) (show classic_band);
  [
    Experiment.make ~exp_id:"FIG1" ~title:"Inertial delay wrong results"
      [
        Experiment.observation
          ~agrees:(discriminating iddm && discriminating analog)
          ~metric:"IDDM & electrical: pulse reaches g1 (low VT) only"
          ~paper:"out1/out1c switch, out2/out2c do not"
          ~measured:
            (Printf.sprintf "iddm out1c=%d out2c=%d; analog out1c=%d out2c=%d"
               (iddm "out1c") (iddm "out2c") (analog "out1c") (analog "out2c"))
          ();
        Experiment.observation
          ~agrees:(classic "out1c" = classic "out2c")
          ~metric:"classical inertial model treats both fanouts identically"
          ~paper:"Fig. 1(c): same waveform on both branches"
          ~measured:
            (Printf.sprintf "classic out1c=%d out2c=%d" (classic "out1c") (classic "out2c"))
          ();
        Experiment.observation
          ~agrees:(classic_band = [])
          ~metric:"classical model has no discriminating pulse width"
          ~paper:"implied by the filtering-at-driver semantics"
          ~measured:(Printf.sprintf "classical band = [%s]" (show classic_band))
          ();
      ];
  ]
