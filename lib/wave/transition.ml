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

(* [Waveform] evaluates its stored segments with these same float
   expressions, written out inline over its flat arrays. *)
let slope ~vdd tr =
  match tr.polarity with Rising -> vdd /. tr.slope_time | Falling -> -.(vdd /. tr.slope_time)

let value_at ~vdd ~v_start tr t =
  let raw = v_start +. (slope ~vdd tr *. (t -. tr.start)) in
  match tr.polarity with Rising -> Float.min raw vdd | Falling -> Float.max raw 0.

