module Tech = Halotis_tech.Tech
module Gate_kind = Halotis_logic.Gate_kind

let slopes = [| 20.; 60.; 150.; 300. |]
let loads = [| 4.; 10.; 25.; 60. |]

let floats_csv a =
  String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%g") a))

let of_tech tech ~kinds =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "/* characterised from %s by HALOTIS */\n" (Tech.name tech);
  pr "library (%s) {\n" (Tech.name tech);
  pr "  time_unit : \"1ps\";\n";
  pr "  capacitive_load_unit : \"1ff\";\n";
  List.iter
    (fun kind ->
      let gt = Tech.gate_tech tech kind in
      let cell_name = Gate_kind.name kind in
      pr "  cell (%s) {\n" cell_name;
      let arity = Gate_kind.arity kind in
      for pin = 0 to arity - 1 do
        pr "    pin (i%d) {\n      direction : input;\n      capacitance : %g;\n    }\n" pin
          gt.Tech.input_cap
      done;
      pr "    pin (y) {\n      direction : output;\n";
      pr "      timing () {\n        related_pin : \"i0\";\n";
      let table name f =
        pr "        %s (grid) {\n" name;
        pr "          index_1 (\"%s\");\n" (floats_csv slopes);
        pr "          index_2 (\"%s\");\n" (floats_csv loads);
        let rows =
          Array.to_list
            (Array.map
               (fun slope ->
                 "\"" ^ floats_csv (Array.map (fun load -> f ~slope ~load) loads) ^ "\"")
               slopes)
        in
        pr "          values (%s);\n" (String.concat ", " rows);
        pr "        }\n"
      in
      let delay ~rising ~slope ~load =
        Tech.base_delay (Tech.edge gt ~rising) ~pin_factor:1.0 ~cl:load ~tau_in:slope
      in
      let transition ~rising ~slope:_ ~load =
        Tech.output_slope (Tech.edge gt ~rising) ~cl:load
      in
      table "cell_rise" (delay ~rising:true);
      table "rise_transition" (transition ~rising:true);
      table "cell_fall" (delay ~rising:false);
      table "fall_transition" (transition ~rising:false);
      pr "      }\n    }\n  }\n")
    kinds;
  pr "}\n";
  Buffer.contents buf

let write_file path tech ~kinds =
  let oc = open_out path in
  output_string oc (of_tech tech ~kinds);
  close_out oc
