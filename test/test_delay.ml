(* Tests for Halotis_delay: load extraction, thresholds, CDM/DDM. *)

module N = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module G = Halotis_netlist.Generators
module Tech = Halotis_tech.Tech
module DL = Halotis_tech.Default_lib
module Loads = Halotis_delay.Loads
module Thresholds = Halotis_delay.Thresholds
module DM = Halotis_delay.Delay_model
module Gate_kind = Halotis_logic.Gate_kind

let checkb = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-6)) msg

let fanout_circuit n =
  let b = Builder.create "fan" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b Gate_kind.Inv ~name:"drv" ~inputs:[| a |] ~output:y in
  for i = 1 to n do
    let o = Builder.signal b (Printf.sprintf "o%d" i) in
    let _ =
      Builder.add_gate b Gate_kind.Inv ~name:(Printf.sprintf "ld%d" i) ~inputs:[| y |]
        ~output:o
    in
    Builder.mark_output b o
  done;
  Builder.finalize b

let test_loads_scale_with_fanout () =
  let c1 = fanout_circuit 1 and c4 = fanout_circuit 4 in
  let y1 = match N.find_signal c1 "y" with Some s -> s | None -> assert false in
  let y4 = match N.find_signal c4 "y" with Some s -> s | None -> assert false in
  let l1 = (Loads.of_netlist DL.tech c1).(y1) and l4 = (Loads.of_netlist DL.tech c4).(y4) in
  checkb "4 loads heavier" true (l4 > l1);
  let inv_cap = (Tech.gate_tech DL.tech Gate_kind.Inv).Tech.input_cap in
  let wire = Tech.wire_cap_per_fanout DL.tech in
  checkf "exact formula" ((4. *. inv_cap) +. (4. *. wire)) l4

let test_loads_unloaded_measurement () =
  let c = G.inverter_chain ~n:1 () in
  let out = match N.find_signal c "out" with Some s -> s | None -> assert false in
  let inv_cap = (Tech.gate_tech DL.tech Gate_kind.Inv).Tech.input_cap in
  checkf "one inverter equivalent" inv_cap (Loads.of_netlist DL.tech c).(out)

let test_loads_extra_load () =
  let b = Builder.create "x" in
  let a = Builder.input b "a" in
  let y = Builder.signal b "y" in
  let _ =
    Builder.add_gate b Gate_kind.Inv ~name:"g" ~extra_load:25. ~inputs:[| a |] ~output:y
  in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let yid = match N.find_signal c "y" with Some s -> s | None -> assert false in
  let inv_cap = (Tech.gate_tech DL.tech Gate_kind.Inv).Tech.input_cap in
  checkf "extra included" (25. +. inv_cap) (Loads.of_netlist DL.tech c).(yid)

(* Every entry of the table is its signal's fanout pin caps plus one
   wire estimate per fanout pin, or one inverter input when unloaded. *)
let test_loads_table_matches_pointwise () =
  let c = (G.fig1_circuit ()).G.circuit in
  let table = Loads.of_netlist DL.tech c in
  let cap gid = (Tech.gate_tech DL.tech (N.gate c gid).N.kind).Tech.input_cap in
  let inv_cap = (Tech.gate_tech DL.tech Gate_kind.Inv).Tech.input_cap in
  checkb "one entry per signal" true (Array.length table = N.signal_count c);
  Array.iteri
    (fun sid l ->
      let loads = (N.signal c sid).N.loads in
      let expected =
        if loads = [||] then inv_cap
        else
          Array.fold_left (fun acc (g, _) -> acc +. cap g) 0. loads
          +. (Tech.wire_cap_per_fanout DL.tech *. float_of_int (Array.length loads))
      in
      checkf "table" expected l)
    table

let test_thresholds_override () =
  let f = G.fig1_circuit ~vt_low:1.1 ~vt_high:3.9 () in
  let c = f.G.circuit in
  let g1 = Fixtures.gate_named c "g1" in
  let g2 = Fixtures.gate_named c "g2" in
  let chain = Fixtures.gate_named c "chain_a" in
  checkf "low override" 1.1 (Thresholds.input_vt DL.tech c g1 ~pin:0);
  checkf "high override" 3.9 (Thresholds.input_vt DL.tech c g2 ~pin:0);
  checkf "default elsewhere" 2.5 (Thresholds.input_vt DL.tech c chain ~pin:0);
  let table = Thresholds.table DL.tech c in
  checkf "table matches" 1.1 table.(g1).(0)

let base_request ?(t_event = 1000.) ?(last = None) ?(tau_in = 100.) ?(pin = 0)
    ?(rising = true) () =
  { Ref_delay.rising_out = rising; pin; tau_in; t_event; last_output_start = last }

let inv_tech () = Tech.gate_tech DL.tech Gate_kind.Inv

let test_cdm_stateless () =
  let gt = inv_tech () in
  let r1 = Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Cdm (base_request ()) in
  let r2 =
    Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Cdm (base_request ~last:(Some 999.) ())
  in
  checkf "history ignored" r1.Ref_delay.tp r2.Ref_delay.tp;
  checkb "never degraded" true (not r1.Ref_delay.degraded && not r2.Ref_delay.degraded);
  checkf "tp = nominal" r1.Ref_delay.tp_nominal r1.Ref_delay.tp

let test_ddm_no_history () =
  let gt = inv_tech () in
  let r = Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Ddm (base_request ~last:None ()) in
  checkf "full delay" r.Ref_delay.tp_nominal r.Ref_delay.tp;
  checkb "not degraded" true (not r.Ref_delay.degraded)

let test_ddm_degrades_close_history () =
  let gt = inv_tech () in
  let far =
    Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Ddm (base_request ~last:(Some (-1e6)) ())
  in
  let near =
    Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Ddm (base_request ~last:(Some 980.) ())
  in
  checkb "far = nominal" true (Float.abs (far.Ref_delay.tp -. far.Ref_delay.tp_nominal) < 1e-6);
  checkb "near degraded" true near.Ref_delay.degraded;
  checkb "near smaller" true (near.Ref_delay.tp < far.Ref_delay.tp)

let test_ddm_collapse () =
  let gt = inv_tech () in
  (* the previous output transition lies *after* the nominal instant of
     the new one (T <= T0): the delay collapses to 0 *)
  let r =
    Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Ddm
      (base_request ~t_event:1000. ~last:(Some 1500.) ())
  in
  checkf "collapsed" 0. r.Ref_delay.tp

let prop_ddm_monotone_in_history =
  QCheck.Test.make ~name:"DDM delay monotone in time since last output" ~count:200
    QCheck.(pair (float_range 0. 2000.) (float_range 0. 2000.))
    (fun (t1, t2) ->
      let gt = inv_tech () in
      let lo = Float.min t1 t2 and hi = Float.max t1 t2 in
      let d last =
        (Ref_delay.compute DL.tech ~gate_tech:gt ~cl:10. DM.Ddm
           (base_request ~t_event:5000. ~last:(Some (5000. -. last)) ()))
          .Ref_delay.tp
      in
      d hi >= d lo -. 1e-9)

let prop_ddm_bounded_by_cdm =
  QCheck.Test.make ~name:"DDM delay never exceeds CDM delay" ~count:200
    QCheck.(triple (float_range 0. 3000.) (float_range 1. 60.) (float_range 10. 400.))
    (fun (gap, cl, tau_in) ->
      let gt = inv_tech () in
      let req = base_request ~t_event:5000. ~last:(Some (5000. -. gap)) ~tau_in () in
      let ddm = Ref_delay.compute DL.tech ~gate_tech:gt ~cl DM.Ddm req in
      let cdm = Ref_delay.compute DL.tech ~gate_tech:gt ~cl DM.Cdm req in
      ddm.Ref_delay.tp <= cdm.Ref_delay.tp +. 1e-9 && ddm.Ref_delay.tau_out = cdm.Ref_delay.tau_out)

let test_for_gate_uses_pin_factor () =
  let b = Builder.create "p" in
  let a = Builder.input b "a" in
  let a2 = Builder.input b "a2" in
  let y = Builder.signal b "y" in
  let _ = Builder.add_gate b (Gate_kind.Nand 2) ~name:"g" ~inputs:[| a; a2 |] ~output:y in
  Builder.mark_output b y;
  let c = Builder.finalize b in
  let loads = Loads.of_netlist DL.tech c in
  let d pin = (Ref_delay.for_gate DL.tech c ~loads 0 DM.Cdm (base_request ~pin ())).Ref_delay.tp in
  checkb "pin 1 slower" true (d 1 > d 0)

let test_kind_to_string () =
  Alcotest.(check string) "cdm" "CDM" (DM.kind_to_string DM.Cdm);
  Alcotest.(check string) "ddm" "DDM" (DM.kind_to_string DM.Ddm)

let tests =
  [
    ( "delay.loads",
      [
        Alcotest.test_case "fanout scaling" `Quick test_loads_scale_with_fanout;
        Alcotest.test_case "measurement load" `Quick test_loads_unloaded_measurement;
        Alcotest.test_case "extra load" `Quick test_loads_extra_load;
        Alcotest.test_case "table pointwise" `Quick test_loads_table_matches_pointwise;
      ] );
    ( "delay.thresholds",
      [ Alcotest.test_case "override" `Quick test_thresholds_override ] );
    ( "delay.model",
      [
        Alcotest.test_case "cdm stateless" `Quick test_cdm_stateless;
        Alcotest.test_case "ddm no history" `Quick test_ddm_no_history;
        Alcotest.test_case "ddm degrades" `Quick test_ddm_degrades_close_history;
        Alcotest.test_case "ddm collapse" `Quick test_ddm_collapse;
        Alcotest.test_case "pin factor" `Quick test_for_gate_uses_pin_factor;
        Alcotest.test_case "kind names" `Quick test_kind_to_string;
        QCheck_alcotest.to_alcotest prop_ddm_monotone_in_history;
        QCheck_alcotest.to_alcotest prop_ddm_bounded_by_cdm;
      ] );
  ]
