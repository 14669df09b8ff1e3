module Drive = Halotis_engine.Drive

type mult_op = { op_a : int; op_b : int }

let pp_mult_op fmt { op_a; op_b } = Format.fprintf fmt "%Xx%X" op_a op_b

let paper_sequence_a =
  [
    { op_a = 0x0; op_b = 0x0 };
    { op_a = 0x7; op_b = 0x7 };
    { op_a = 0x5; op_b = 0xA };
    { op_a = 0xE; op_b = 0x6 };
    { op_a = 0xF; op_b = 0xF };
  ]

let paper_sequence_b =
  [
    { op_a = 0x0; op_b = 0x0 };
    { op_a = 0xF; op_b = 0xF };
    { op_a = 0x0; op_b = 0x0 };
    { op_a = 0xF; op_b = 0xF };
    { op_a = 0x0; op_b = 0x0 };
  ]

let expected_product { op_a; op_b } = op_a * op_b

let bit v i = (v lsr i) land 1 = 1

let bus_drives ~slope ~period ~bits ~values =
  match values with
  | [] -> List.map (fun sid -> (sid, Drive.constant false)) bits
  | first :: rest ->
      List.mapi
        (fun i sid ->
          let initial = bit first i in
          let changes =
            List.mapi (fun k v -> (period *. float_of_int (k + 1), bit v i)) rest
          in
          (sid, Drive.of_levels ~slope ~initial changes))
        bits

let multiplier_drives ~slope ~period ~a_bits ~b_bits ops =
  bus_drives ~slope ~period ~bits:a_bits ~values:(List.map (fun o -> o.op_a) ops)
  @ bus_drives ~slope ~period ~bits:b_bits ~values:(List.map (fun o -> o.op_b) ops)

let clock ~slope ~period ~start ~pulses () =
  if pulses < 0 then invalid_arg "Vectors.clock: pulses must be non-negative";
  let changes =
    List.concat
      (List.init pulses (fun k ->
           let base = start +. (period *. float_of_int k) in
           [ (base, true); (base +. (0.5 *. period), false) ]))
  in
  Drive.of_levels ~slope ~initial:false changes
