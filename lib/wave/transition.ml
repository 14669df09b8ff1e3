module Approx = Halotis_util.Approx

type polarity = Rising | Falling

type t = {
  start : Halotis_util.Units.time;
  slope_time : Halotis_util.Units.time;
  polarity : polarity;
}

let make ~start ~slope_time ~polarity =
  if not (Approx.is_finite start) then invalid_arg "Transition.make: start not finite";
  if not (slope_time > 0. && Approx.is_finite slope_time) then
    invalid_arg "Transition.make: slope_time must be positive";
  { start; slope_time; polarity }

let opposite = function Rising -> Falling | Falling -> Rising
let polarity_to_string = function Rising -> "rise" | Falling -> "fall"

let equal_polarity a b =
  match (a, b) with Rising, Rising | Falling, Falling -> true | (Rising | Falling), _ -> false

let target ~vdd tr = match tr.polarity with Rising -> vdd | Falling -> 0.

(* Scalar (record-free) ramp math: the waveform store keeps its
   segments in flat arrays and evaluates ramps through these; the
   record-taking functions below delegate here so both paths compute
   the exact same float expressions. *)

let slope_ramp ~vdd ~slope_time ~rising =
  if rising then vdd /. slope_time else -.(vdd /. slope_time)

let value_at_ramp ~vdd ~v_start ~start ~slope_time ~rising t =
  let raw = v_start +. (slope_ramp ~vdd ~slope_time ~rising *. (t -. start)) in
  if rising then Float.min raw vdd else Float.max raw 0.

let crossing_ramp ~vdd ~v_start ~start ~slope_time ~rising ~vt =
  let reachable = if rising then v_start < vt && vt <= vdd else v_start > vt && vt >= 0. in
  if not reachable then Float.nan
  else start +. ((vt -. v_start) /. slope_ramp ~vdd ~slope_time ~rising)

let is_rising = function Rising -> true | Falling -> false

let slope ~vdd tr = slope_ramp ~vdd ~slope_time:tr.slope_time ~rising:(is_rising tr.polarity)

let value_at ~vdd ~v_start tr t =
  value_at_ramp ~vdd ~v_start ~start:tr.start ~slope_time:tr.slope_time
    ~rising:(is_rising tr.polarity) t

let crossing ~vdd ~v_start tr ~vt =
  let c =
    crossing_ramp ~vdd ~v_start ~start:tr.start ~slope_time:tr.slope_time
      ~rising:(is_rising tr.polarity) ~vt
  in
  if Float.is_nan c then None else Some c

let pp fmt tr =
  Format.fprintf fmt "%s@%a(tau=%a)" (polarity_to_string tr.polarity)
    Halotis_util.Units.pp_time tr.start Halotis_util.Units.pp_time tr.slope_time

