module Netlist = Halotis_netlist.Netlist
module Transition = Halotis_wave.Transition

type t = { initial : bool; transitions : Transition.t list }

let constant initial = { initial; transitions = [] }

let of_levels ~slope ~initial changes =
  let sorted = List.sort (fun (t1, _) (t2, _) -> Float.compare t1 t2) changes in
  let rec build level acc = function
    | [] -> List.rev acc
    | (t, v) :: rest ->
        if v = level then build level acc rest
        else begin
          let polarity = if v then Transition.Rising else Transition.Falling in
          let tr = Transition.make ~start:t ~slope_time:slope ~polarity in
          build v (tr :: acc) rest
        end
  in
  { initial; transitions = build initial [] sorted }

let pulse ~slope ~at ~width () =
  of_levels ~slope ~initial:false [ (at, true); (at +. width, false) ]

let check d =
  let rec ordered = function
    | a :: (b :: _ as rest) ->
        if a.Transition.start > b.Transition.start then
          invalid_arg "Drive.check: transitions out of order"
        else ordered rest
    | [ _ ] | [] -> ()
  in
  ordered d.transitions

let check_input ~who c sid =
  if sid < 0 || sid >= Netlist.signal_count c then invalid_arg (who ^ ": unknown signal");
  if not (Netlist.signal c sid).Netlist.is_primary_input then
    invalid_arg
      (Printf.sprintf "%s: drive on non-input signal %s" who (Netlist.signal_name c sid))

let bind ~who (cp : Compiled.t) drives =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (sid, d) ->
      check d;
      check_input ~who cp.Compiled.circuit sid;
      Hashtbl.replace tbl sid d)
    drives;
  let input_level sid = match Hashtbl.find_opt tbl sid with Some d -> d.initial | None -> false in
  (tbl, Dc.levels cp ~input_level)
