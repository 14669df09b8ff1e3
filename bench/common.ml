(* Shared plumbing for the experiment harness: the paper's circuit and
   stimuli, engine shorthands, and printing helpers. *)

module N = Halotis_netlist.Netlist
module G = Halotis_netlist.Generators
module Iddm = Halotis_engine.Iddm
module Classic = Halotis_engine.Classic
module Drive = Halotis_engine.Drive
module Stats = Halotis_engine.Stats
module W = Halotis_wave.Waveform
module D = Halotis_wave.Digital
module T = Halotis_wave.Transition
module DL = Halotis_tech.Default_lib
module DM = Halotis_delay.Delay_model
module Sim = Halotis_analog.Sim
module V = Halotis_stim.Vectors
module Act = Halotis_power.Activity
module Energy = Halotis_power.Energy
module Table = Halotis_report.Table
module Figures = Halotis_report.Figures
module Experiment = Halotis_report.Experiment

let vdd2 = DL.vdd /. 2.

(* The bench binary is _build/.../bench/main.exe; the CLI sits in the
   sibling bin/ directory.  Data files resolve against the invocation
   cwd (repo root under `dune exec`) with the build tree as fallback. *)
let cli_exe =
  Filename.concat (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "halotis_cli.exe"))

let data f =
  let local = Filename.concat "examples" (Filename.concat "data" f) in
  if Sys.file_exists local then local
  else
    Filename.concat (Filename.dirname Sys.executable_name)
      (Filename.concat ".." local)

(* Experiment parameters mirroring the paper's evaluation: 4x4 array
   multiplier, one vector every 5 ns, 25 ns horizon. *)
let period = 5000.
let horizon = 25000.
let input_slope = 100.

let multiplier = lazy (G.array_multiplier ~m:4 ~n:4 ())

let mult_drives ops =
  let m = Lazy.force multiplier in
  V.multiplier_drives ~slope:input_slope ~period ~a_bits:m.G.ma_bits ~b_bits:m.G.mb_bits ops

let run_ddm ?(cancellation = true) ops =
  Iddm.run
    (Iddm.config ~cancellation DL.tech)
    (Lazy.force multiplier).G.mult_circuit ~drives:(mult_drives ops)

let run_cdm ops =
  Iddm.run
    (Iddm.config ~delay_kind:DM.Cdm DL.tech)
    (Lazy.force multiplier).G.mult_circuit ~drives:(mult_drives ops)

let run_classic ops =
  Classic.run (Classic.config DL.tech) (Lazy.force multiplier).G.mult_circuit
    ~drives:(mult_drives ops)

let run_analog ?(record_every = 4) ops =
  Sim.run
    (Sim.config ~record_every ~t_stop:horizon DL.tech)
    (Lazy.force multiplier).G.mult_circuit ~drives:(mult_drives ops)

let sequence_label ops = String.concat ", " (List.map (Format.asprintf "%a" V.pp_mult_op) ops)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let product_lanes_of_iddm (r : Iddm.result) =
  let m = Lazy.force multiplier in
  List.mapi
    (fun i sid ->
      Figures.lane_of_waveform ~label:(Printf.sprintf "s%d" i) ~vt:vdd2
        r.Iddm.waveforms.(sid))
    m.G.product_bits
  |> List.rev

let product_lanes_of_classic (r : Classic.result) =
  let m = Lazy.force multiplier in
  List.mapi
    (fun i sid ->
      Figures.lane_of_edges ~label:(Printf.sprintf "s%d" i)
        ~initial:r.Classic.initial_levels.(sid) (Lazy.force r.Classic.edges).(sid))
    m.G.product_bits
  |> List.rev

let product_lanes_of_analog (r : Sim.result) =
  let m = Lazy.force multiplier in
  List.mapi
    (fun i sid ->
      let tr = r.Sim.traces.(sid) in
      Figures.lane_of_edges ~label:(Printf.sprintf "s%d" i)
        ~initial:(Sim.value_at tr 0. > vdd2)
        (Sim.crossings tr ~vt:vdd2))
    m.G.product_bits
  |> List.rev

let internal_edges_iddm (r : Iddm.result) =
  Array.fold_left
    (fun acc (s : N.signal) ->
      if s.N.is_primary_input then acc
      else acc + D.edge_count r.Iddm.waveforms.(s.N.signal_id) ~vt:vdd2)
    0
    (N.signals r.Iddm.circuit)

let internal_edges_analog (r : Sim.result) =
  Array.fold_left
    (fun acc (s : N.signal) ->
      if s.N.is_primary_input then acc
      else acc + List.length (Sim.crossings r.Sim.traces.(s.N.signal_id) ~vt:vdd2))
    0
    (N.signals r.Sim.circuit)

let time_once f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  let t1 = Unix.gettimeofday () in
  (x, t1 -. t0)

let pct_more ~base x =
  if base = 0 then 0. else 100. *. float_of_int (x - base) /. float_of_int base
