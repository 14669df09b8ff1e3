module Digital = Halotis_wave.Digital
module Waveform = Halotis_wave.Waveform
module Transition = Halotis_wave.Transition

type lane = { label : string; initial : bool; lane_edges : Digital.edge list }

let lane_of_waveform ~label ~vt w =
  { label; initial = Waveform.initial w > vt; lane_edges = Digital.edges w ~vt }

let lane_of_edges ~label ~initial edges = { label; initial; lane_edges = edges }

let level_at lane t =
  let rec scan level = function
    | [] -> level
    | (e : Digital.edge) :: rest ->
        if e.Digital.at > t then level
        else
          scan
            (match e.Digital.polarity with Transition.Rising -> true | Falling -> false)
            rest
  in
  scan lane.initial lane.lane_edges

let timing_diagram ?(width = 100) ~t0 ~t1 lanes =
  if t1 <= t0 then invalid_arg "Figures.timing_diagram: empty time range";
  let label_width =
    List.fold_left (fun acc l -> max acc (String.length l.label)) 0 lanes
  in
  let dt = (t1 -. t0) /. float_of_int width in
  let buf = Buffer.create 1024 in
  let render_lane lane =
    Buffer.add_string buf (Printf.sprintf "%-*s " label_width lane.label);
    let prev = ref (level_at lane (t0 +. (0.5 *. dt))) in
    for col = 0 to width - 1 do
      let t = t0 +. ((float_of_int col +. 0.5) *. dt) in
      let level = level_at lane t in
      let ch =
        if level <> !prev then '|'
        else if level then '-'
        else '_'
      in
      prev := level;
      Buffer.add_char buf ch
    done;
    Buffer.add_char buf '\n'
  in
  List.iter render_lane lanes;
  (* time axis: a tick every ~20 columns, labelled in ns *)
  Buffer.add_string buf (String.make (label_width + 1) ' ');
  let tick_every = max 1 (width / 5) in
  let col = ref 0 in
  while !col < width do
    let t_ns = (t0 +. (float_of_int !col *. dt)) /. 1000. in
    let label = Printf.sprintf "^%.1fns" t_ns in
    Buffer.add_string buf label;
    let advance = max (String.length label) tick_every in
    Buffer.add_string buf (String.make (max 0 (tick_every - String.length label)) ' ');
    col := !col + advance
  done;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let voltage_lane ?(width = 100) ~t0 ~t1 ~vdd ~label f =
  let rows = 5 in
  if t1 <= t0 then invalid_arg "Figures.voltage_lane: empty time range";
  let dt = (t1 -. t0) /. float_of_int width in
  let samples =
    Array.init width (fun col -> f (t0 +. ((float_of_int col +. 0.5) *. dt)))
  in
  let buf = Buffer.create 1024 in
  for row = rows - 1 downto 0 do
    let lo = vdd *. float_of_int row /. float_of_int rows in
    let prefix = if row = rows - 1 then Printf.sprintf "%-8s" label else String.make 8 ' ' in
    Buffer.add_string buf prefix;
    Array.iter
      (fun v ->
        let bucket_hit = v >= lo in
        let in_bucket = v >= lo && v < lo +. (vdd /. float_of_int rows) in
        Buffer.add_char buf (if in_bucket then '*' else if bucket_hit then ' ' else ' '))
      samples;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
