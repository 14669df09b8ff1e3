(* Seeded input generation.  Every workload derives its circuits and
   stimulus from the run's seed here and hands the program only their
   serialized form (HNL and HSV text, or files holding it). *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Hnl = Halotis_netlist.Hnl
module Stimfile = Halotis_stim.Stimfile
module Drive = Halotis_engine.Drive
module Prng = Halotis_util.Prng

let slope = 100.

(* A positive generator seed derived from the run seed and a stream
   number, so the workloads' streams never coincide. *)
let derive seed stream = 1 + (((seed * 1_000_003) + (stream * 7919)) land 0x3FFF_FFFF)

let circuit ~name ~gates ~inputs ~seed = G.random_combinational ~name ~gates ~inputs ~seed ()

(* Staggered multi-toggle stimulus on every input, as in the CONE
   experiment: each input toggles [toggles] times, near multiples of
   [period], each change jittered by up to a sixth of the period.  This
   is the activity a testbench replaying unsynchronized vectors makes. *)
let stim ~seed ~toggles ~period c =
  let rng = Prng.create ~seed in
  let entry s =
    let initial = Prng.bool rng in
    let changes =
      List.init toggles (fun k ->
          let at = (period *. float_of_int (k + 1)) +. Prng.float rng ~bound:(period /. 6.) in
          (at, Prng.bool rng))
    in
    (N.signal_name c s, Drive.of_levels ~slope ~initial changes, changes)
  in
  let entries = List.map entry (N.primary_inputs c) in
  {
    Stimfile.slope;
    entries = List.map (fun (name, d, _) -> (name, d)) entries;
    raw_changes = List.map (fun (name, _, ch) -> (name, ch)) entries;
  }

(* The horizon that covers the stimulus of [stim ~toggles ~period] with
   room for the last wave to settle. *)
let horizon ~toggles ~period = (period *. float_of_int (toggles + 1)) +. 5_000.

type inputs = {
  hnl : string;
  hsv : string;
  gates : int;
  t_stop : float;
}

let circuit_and_stim ~name ~gates ~inputs ~toggles ~period ~seed =
  let c = circuit ~name ~gates ~inputs ~seed:(derive seed 1) in
  let st = stim ~seed:(derive seed 2) ~toggles ~period c in
  { hnl = Hnl.to_string c; hsv = Stimfile.to_string st; gates; t_stop = horizon ~toggles ~period }

