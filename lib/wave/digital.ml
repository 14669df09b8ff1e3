type edge = { at : Halotis_util.Units.time; polarity : Transition.polarity }

let edges w ~vt =
  List.map (fun (at, polarity) -> { at; polarity }) (Waveform.crossings w ~vt)

let edge_count w ~vt = List.length (edges w ~vt)

type pulse = {
  t_rise : Halotis_util.Units.time;
  t_fall : Halotis_util.Units.time;
  width : Halotis_util.Units.time;
  positive : bool;
}

let final_level w ~vt =
  match List.rev (edges w ~vt) with
  | { polarity = Transition.Rising; _ } :: _ -> true
  | { polarity = Transition.Falling; _ } :: _ -> false
  | [] -> Waveform.initial w > vt

let level_at w ~vt t =
  let before = List.filter (fun e -> e.at <= t) (edges w ~vt) in
  match List.rev before with
  | { polarity = Transition.Rising; _ } :: _ -> true
  | { polarity = Transition.Falling; _ } :: _ -> false
  | [] -> Waveform.initial w > vt

let pulses w ~vt =
  (* Edges alternate by construction.  A pulse is an excursion away
     from the settled level and back, so edges pair up disjointly:
     (e1, e2), (e3, e4), ...; the gaps in between are the signal at
     rest, not pulses. *)
  let rec pair acc = function
    | e1 :: e2 :: rest ->
        let p =
          match e1.polarity with
          | Transition.Rising ->
              { t_rise = e1.at; t_fall = e2.at; width = e2.at -. e1.at; positive = true }
          | Transition.Falling ->
              { t_rise = e2.at; t_fall = e1.at; width = e2.at -. e1.at; positive = false }
        in
        pair (p :: acc) rest
    | [ _ ] | [] -> List.rev acc
  in
  pair [] (edges w ~vt)

type runt = {
  peak : Halotis_util.Units.voltage;
  t_start : Halotis_util.Units.time;
  t_end : Halotis_util.Units.time;
  upward : bool;
}

let runts w =
  let vdd = Waveform.vdd w in
  let segs = Array.of_list (Waveform.segments w) in
  let n = Array.length segs in
  let seg_end i =
    if i = n - 1 then infinity else segs.(i + 1).Waveform.transition.Transition.start
  in
  let v_end i =
    let s = segs.(i) in
    if i = n - 1 then Transition.target ~vdd s.Waveform.transition
    else
      Transition.value_at ~vdd ~v_start:s.Waveform.v_start s.Waveform.transition (seg_end i)
  in
  (* Group maximal runs of same-polarity segments into excursions. *)
  let result = ref [] in
  let i = ref 0 in
  while !i < n do
    let start = !i in
    let pol = segs.(start).Waveform.transition.Transition.polarity in
    let stop = ref start in
    while
      !stop + 1 < n
      && Transition.equal_polarity segs.(!stop + 1).Waveform.transition.Transition.polarity pol
    do
      incr stop
    done;
    let peak = v_end !stop in
    let reaches_rail =
      match pol with Transition.Rising -> peak >= vdd | Transition.Falling -> peak <= 0.
    in
    if not reaches_rail then
      result :=
        {
          peak;
          t_start = segs.(start).Waveform.transition.Transition.start;
          t_end = seg_end !stop;
          upward = (match pol with Transition.Rising -> true | Transition.Falling -> false);
        }
        :: !result;
    i := !stop + 1
  done;
  List.rev !result

let pp_edge fmt e =
  Format.fprintf fmt "%s@%a"
    (Transition.polarity_to_string e.polarity)
    Halotis_util.Units.pp_time e.at
