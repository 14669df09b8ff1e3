module Digital = Halotis_wave.Digital
module Waveform = Halotis_wave.Waveform

type histogram = { counts : int array; overflow : int }

let bucket_width = 100.
let buckets = 10

let pulse_width_histogram ~vt waveforms =
  let counts = Array.make buckets 0 in
  let overflow = ref 0 in
  Array.iter
    (fun w ->
      List.iter
        (fun (p : Digital.pulse) ->
          let bucket = int_of_float (Float.floor (p.Digital.width /. bucket_width)) in
          if bucket >= buckets then incr overflow
          else counts.(bucket) <- counts.(bucket) + 1)
        (Digital.pulses w ~vt))
    waveforms;
  { counts; overflow = !overflow }

let pp_histogram fmt h =
  Array.iteri
    (fun i n ->
      Format.fprintf fmt "  %4.0f-%4.0f ps: %s (%d)@."
        (float_of_int i *. bucket_width)
        (float_of_int (i + 1) *. bucket_width)
        (String.make (min n 60) '#') n)
    h.counts;
  if h.overflow > 0 then Format.fprintf fmt "  wider      : (%d)@." h.overflow

type glitch_report = {
  functional_edges : int;
  glitch_pulses : int;
  glitch_energy_fraction : float;
}

let classify ~period ~vt waveforms =
  if period <= 0. then invalid_arg "Glitch.classify: period must be positive";
  let functional = ref 0 and glitch = ref 0 in
  Array.iter
    (fun w ->
      let edges = Digital.edges w ~vt in
      (* group edges by the vector period they fall into *)
      let by_period = Hashtbl.create 8 in
      List.iter
        (fun (e : Digital.edge) ->
          let k = int_of_float (Float.floor (e.Digital.at /. period)) in
          let old = try Hashtbl.find by_period k with Not_found -> 0 in
          Hashtbl.replace by_period k (old + 1))
        edges;
      Hashtbl.iter
        (fun _k n ->
          (* the last change settles the period; of the remaining n-1
             edges, each hazard pulse takes two *)
          if n > 0 then begin
            incr functional;
            glitch := !glitch + ((n - 1) / 2)
          end)
        by_period)
    waveforms;
  let total_edges = !functional + (2 * !glitch) in
  {
    functional_edges = !functional;
    glitch_pulses = !glitch;
    glitch_energy_fraction =
      (if total_edges = 0 then 0. else float_of_int (2 * !glitch) /. float_of_int total_edges);
  }
