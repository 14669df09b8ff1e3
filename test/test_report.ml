(* Tests for Halotis_report: tables, figures, experiment records. *)

module Table = Halotis_report.Table
module Figures = Halotis_report.Figures
module Experiment = Halotis_report.Experiment
module W = Halotis_wave.Waveform
module T = Halotis_wave.Transition
module D = Halotis_wave.Digital

let checkb = Alcotest.(check bool)
let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  scan 0

let test_table_render () =
  let t = Table.make ~header:[ "seq"; "events" ] ~rows:[ [ "A"; "959" ]; [ "B"; "1312" ] ] in
  let text = Table.render t in
  checkb "header" true (contains text "| seq | events |");
  checkb "row" true (contains text "| B   | 1312   |");
  checkb "rule" true (contains text "+=====+========+")

let test_table_padding () =
  let t = Table.make ~header:[ "a"; "b"; "c" ] ~rows:[ [ "1" ] ] in
  let text = Table.render t in
  checkb "padded row renders" true (contains text "| 1 |   |   |")

let test_table_csv () =
  let t =
    Table.make ~header:[ "name"; "value" ]
      ~rows:[ [ "plain"; "1" ]; [ "with,comma"; "2" ]; [ "with\"quote"; "3" ] ]
  in
  let csv = Table.to_csv t in
  checkb "header line" true (contains csv "name,value");
  checkb "comma quoted" true (contains csv "\"with,comma\",2");
  checkb "quote escaped" true (contains csv "\"with\"\"quote\",3")

let pulse_waveform () =
  let w = W.create ~vdd:5. () in
  ignore (W.append w (T.make ~start:1000. ~slope_time:100. ~polarity:T.Rising));
  ignore (W.append w (T.make ~start:3000. ~slope_time:100. ~polarity:T.Falling));
  w

let test_timing_diagram () =
  let w = pulse_waveform () in
  let lane = Figures.lane_of_waveform ~label:"sig" ~vt:2.5 w in
  let text = Figures.timing_diagram ~width:40 ~t0:0. ~t1:5000. [ lane ] in
  checkb "label present" true (contains text "sig ");
  checkb "has low" true (contains text "_");
  checkb "has high" true (contains text "-");
  checkb "has edges" true (contains text "|");
  checkb "has axis" true (contains text "^0.0ns")

let test_timing_diagram_initial_high () =
  let lane = Figures.lane_of_edges ~label:"x" ~initial:true [] in
  let text = Figures.timing_diagram ~width:20 ~t0:0. ~t1:100. [ lane ] in
  checkb "all high" true (contains text "--------------------")

let test_timing_diagram_errors () =
  checkb "empty range" true
    (try
       ignore (Figures.timing_diagram ~t0:10. ~t1:10. []);
       false
     with Invalid_argument _ -> true)

let test_voltage_lane () =
  let w = pulse_waveform () in
  let text =
    Figures.voltage_lane ~width:40 ~t0:0. ~t1:5000. ~vdd:5. ~label:"v(out)"
      (fun t -> W.value_at w t)
  in
  checkb "label" true (contains text "v(out)");
  checkb "has samples" true (contains text "*")

let test_experiment_render () =
  let e =
    Experiment.make ~exp_id:"TAB1" ~title:"Switching activity"
      [
        Experiment.observation ~agrees:true ~metric:"overestimation seq A" ~paper:"47%"
          ~measured:"21%" ~note:"weaker but same direction" ();
        Experiment.observation ~metric:"shape" ~paper:"CDM > DDM" ~measured:"CDM > DDM" ();
      ]
  in
  let text = Experiment.render e in
  checkb "id" true (contains text "TAB1");
  checkb "verdict ok" true (contains text "[OK]");
  checkb "qualitative" true (contains text "[qualitative]");
  let md = Experiment.render_markdown [ e ] in
  checkb "markdown header" true (contains md "## TAB1");
  checkb "markdown table" true (contains md "| Metric | Paper | Measured | Verdict | Note |")

let test_experiment_diverges () =
  let e =
    Experiment.make ~exp_id:"X" ~title:"t"
      [ Experiment.observation ~agrees:false ~metric:"m" ~paper:"1" ~measured:"2" () ]
  in
  checkb "diverges" true (contains (Experiment.render e) "DIVERGES")

let tests =
  [
    ( "report.table",
      [
        Alcotest.test_case "render" `Quick test_table_render;
        Alcotest.test_case "padding" `Quick test_table_padding;
        Alcotest.test_case "csv" `Quick test_table_csv;
      ] );
    ( "report.figures",
      [
        Alcotest.test_case "timing diagram" `Quick test_timing_diagram;
        Alcotest.test_case "initial high" `Quick test_timing_diagram_initial_high;
        Alcotest.test_case "errors" `Quick test_timing_diagram_errors;
        Alcotest.test_case "voltage lane" `Quick test_voltage_lane;
      ] );
    ( "report.experiment",
      [
        Alcotest.test_case "render" `Quick test_experiment_render;
        Alcotest.test_case "diverges" `Quick test_experiment_diverges;
      ] );
  ]
