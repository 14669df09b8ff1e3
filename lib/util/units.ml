type time = float
type voltage = float
type capacitance = float

let pp_time fmt t =
  if Float.abs t >= 1000. then Format.fprintf fmt "%.3fns" (t /. 1000.)
  else Format.fprintf fmt "%.1fps" t
