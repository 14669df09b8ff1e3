(* COLL — input glitch collisions (extension).

   The paper's introduction singles out "glitch collisions": two input
   transitions arriving close in time whose overlap produces an output
   glitch.  On a NAND2 with a rising on one pin and b falling Δ later,
   the output shows a negative glitch of roughly width Δ; as Δ shrinks
   the real gate's glitch degrades continuously and dies.  DDM follows
   the electrical reference; CDM keeps every glitch wider than its
   fixed filtering boundary. *)

open Common
module Builder = Halotis_netlist.Builder
module Gate_kind = Halotis_logic.Gate_kind

let nand2 () =
  let b = Builder.create "collision" in
  let a = Builder.input b "a" in
  let bb = Builder.input b "b" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g" ~inputs:[| a; bb |] ~output:y in
  Builder.mark_output b y;
  (Builder.finalize b, a, bb)

let glitch_width engine separation =
  let c, a, bb = nand2 () in
  let drives =
    [
      (a, Drive.of_levels ~slope:input_slope ~initial:false [ (1000., true) ]);
      (bb, Drive.of_levels ~slope:input_slope ~initial:true [ (1000. +. separation, false) ]);
    ]
  in
  match engine with
  | `Ddm | `Cdm -> (
      let kind = if engine = `Ddm then DM.Ddm else DM.Cdm in
      let r = Iddm.run (Iddm.config ~delay_kind:kind DL.tech) c ~drives in
      match D.pulses (Iddm.waveform r "y") ~vt:vdd2 with
      | [ p ] -> Some p.D.width
      | [] -> None
      | _ -> None)
  | `Analog -> (
      let r = Sim.run (Sim.config ~t_stop:5000. DL.tech) c ~drives in
      match Sim.edges r "y" with
      | [ e1; e2 ] -> Some (e2.D.at -. e1.D.at)
      | _ -> None)

let separations = [ 50.; 100.; 150.; 200.; 250.; 300.; 400.; 600. ]

let run () =
  section "COLL -- input glitch collisions on a NAND2 (extension)";
  print_endline
    "a rises at 1 ns, b falls Delta later; output glitch width at VDD/2 ('-' = none):";
  let cell = function Some w -> Printf.sprintf "%.0f" w | None -> "-" in
  Table.print
    (Table.make
       ~header:[ "Delta (ps)"; "analog"; "HALOTIS-DDM"; "HALOTIS-CDM" ]
       ~rows:
         (List.map
            (fun sep ->
              [
                Printf.sprintf "%.0f" sep;
                cell (glitch_width `Analog sep);
                cell (glitch_width `Ddm sep);
                cell (glitch_width `Cdm sep);
              ])
            separations));
  let first_alive engine =
    List.find_opt (fun sep -> glitch_width engine sep <> None) separations
  in
  let monotone engine =
    let widths = List.filter_map (fun sep -> glitch_width engine sep) separations in
    let rec increasing = function
      | a :: (b :: _ as rest) -> a <= b +. 1. && increasing rest
      | [ _ ] | [] -> true
    in
    increasing widths
  in
  let close =
    match (first_alive `Ddm, first_alive `Analog) with
    | Some a, Some b -> Float.abs (a -. b) <= 100.
    | (Some _ | None), (Some _ | None) -> false
  in
  [
    Experiment.make ~exp_id:"COLL" ~title:"Input glitch collisions (extension)"
      [
        Experiment.observation ~agrees:(monotone `Ddm && monotone `Analog)
          ~metric:"collision glitch grows continuously with input separation"
          ~paper:"input collisions change the gate's response (Sec. 1, ref [5])"
          ~measured:"monotone in both DDM and the electrical reference"
          ();
        Experiment.observation ~agrees:close
          ~metric:"DDM collision-glitch birth point tracks the electrical one"
          ~paper:"(accuracy claim)"
          ~measured:
            (Printf.sprintf "first visible glitch: ddm Delta=%s, analog Delta=%s"
               (match first_alive `Ddm with Some s -> Printf.sprintf "%.0f" s | None -> "none")
               (match first_alive `Analog with Some s -> Printf.sprintf "%.0f" s | None -> "none"))
          ();
      ];
  ]
