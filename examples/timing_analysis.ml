(* Static timing and hazard analysis next to dynamic simulation: the
   two adder architectures compute the same function with different
   timing profiles, and the static tools see it.

   Run with:  dune exec examples/timing_analysis.exe *)

module G = Halotis_netlist.Generators
module N = Halotis_netlist.Netlist
module Equiv = Halotis_netlist.Equiv
module Sta = Halotis_sta.Sta
module Hazard = Halotis_sta.Hazard
module Iddm = Halotis_engine.Iddm
module Drive = Halotis_engine.Drive
module Digital = Halotis_wave.Digital
module DL = Halotis_tech.Default_lib

let settle_time (adder : G.adder) =
  (* worst observed settle over a few hard vectors: carry ripple *)
  let c = adder.G.adder_circuit in
  let vectors = [ (0b1111, 0b0001); (0b0111, 0b1001); (0b1010, 0b0110) ] in
  List.fold_left
    (fun acc (x, y) ->
      let bits v i = (v lsr i) land 1 = 1 in
      let drives =
        List.mapi (fun i s -> (s, Drive.of_levels ~slope:100. ~initial:false [ (0., bits x i) ]))
          adder.G.a_bits
        @ List.mapi
            (fun i s -> (s, Drive.of_levels ~slope:100. ~initial:false [ (0., bits y i) ]))
            adder.G.b_bits
      in
      let r = Iddm.run (Iddm.config DL.tech) c ~drives in
      Array.fold_left
        (fun acc w ->
          List.fold_left (fun acc (e : Digital.edge) -> Float.max acc e.Digital.at) acc
            (Digital.edges w ~vt:2.5))
        acc r.Iddm.waveforms)
    0. vectors

let () =
  let rca = G.ripple_carry_adder ~bits:4 () in
  let cla = G.carry_lookahead_adder ~bits:4 () in

  (* same function... *)
  Format.printf "equivalence: %a@."
    Equiv.pp_verdict
    (Equiv.check rca.G.adder_circuit cla.G.adder_circuit);

  (* ...different static timing *)
  let report label (adder : G.adder) =
    let c = adder.G.adder_circuit in
    let t = Sta.analyze DL.tech c in
    let h = Hazard.analyze DL.tech c in
    Printf.printf "\n%s: %d gates, depth %s\n" label (N.gate_count c)
      (match Halotis_netlist.Check.depth c with Some d -> string_of_int d | None -> "?");
    Printf.printf "  STA worst arrival: %.0f ps\n" (Sta.worst t);
    Printf.printf "  hazard sites: %d (%d timing)\n"
      (List.length (Hazard.sites h))
      (List.length (Hazard.timing_sites h));
    Printf.printf "  observed settle on carry-ripple vectors: %.0f ps\n" (settle_time adder);
    print_endline "  critical path:";
    Format.printf "%a" (Sta.pp_path c) (Sta.critical_path t)
  in
  report "ripple-carry adder" rca;
  report "carry-lookahead adder" cla;

  (* dynamic path measurement: walk a one through every input of the
     CLA and measure input-edge -> output-edge latencies *)
  let measure_paths (adder : G.adder) =
    let c = adder.G.adder_circuit in
    let all_latencies =
      List.concat_map
        (fun input ->
          let drives =
            (input, Drive.pulse ~slope:100. ~at:1000. ~width:2000. ())
            :: List.filter_map
                 (fun s -> if s = input then None else Some (s, Drive.constant false))
                 (adder.G.a_bits @ adder.G.b_bits)
          in
          let r = Iddm.run (Iddm.config DL.tech) c ~drives in
          let cause = Digital.edges r.Iddm.waveforms.(input) ~vt:2.5 in
          List.concat_map
            (fun out ->
              Halotis_wave.Measure.latencies ~cause
                ~response:(Digital.edges r.Iddm.waveforms.(out) ~vt:2.5))
            (N.primary_outputs c))
        (adder.G.a_bits @ adder.G.b_bits)
    in
    Halotis_wave.Measure.stats all_latencies
  in
  print_newline ();
  (match measure_paths cla with
  | Some s ->
      Format.printf "CLA walking-ones path latencies: %a@." Halotis_wave.Measure.pp_stats s;
      let bound = Sta.worst (Sta.analyze DL.tech cla.G.adder_circuit) in
      Printf.printf "(all below the %.0f ps STA bound: %b)\n" bound
        (s.Halotis_wave.Measure.max_ps <= bound)
  | None -> print_endline "no paths measured");
  print_endline
    "\nThe CLA buys a flatter arrival profile with wider multi-input gates; the STA\n\
     bound always sits above the observed settle time (a property the test suite\n\
     checks on random circuits)."
