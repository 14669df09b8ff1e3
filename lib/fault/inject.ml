module Transition = Halotis_wave.Transition
module Sim = Halotis_engine.Sim

type pulse = { width : float; slope : float }

let pulse ?(slope = 100.) ~width () =
  if width <= 0. then invalid_arg "Inject.pulse: width must be positive";
  if slope <= 0. then invalid_arg "Inject.pulse: slope must be positive";
  { width; slope }

let transitions ~at ~polarity p =
  [
    Transition.make ~start:at ~slope_time:p.slope ~polarity;
    Transition.make ~start:(at +. p.width) ~slope_time:p.slope
      ~polarity:(Transition.opposite polarity);
  ]

let injection (site : Site.t) p =
  {
    Sim.inj_signal = site.Site.st_signal;
    inj_ramps = transitions ~at:site.Site.st_at ~polarity:site.Site.st_polarity p;
  }
