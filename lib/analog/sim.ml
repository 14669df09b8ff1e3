module Netlist = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check
module Waveform = Halotis_wave.Waveform
module Transition = Halotis_wave.Transition
module Digital = Halotis_wave.Digital
module Tech = Halotis_tech.Tech
module Value = Halotis_logic.Value
module Gate_kind = Halotis_logic.Gate_kind
module Drive = Halotis_engine.Drive

type config = {
  tech : Tech.t;
  dt : float;
  record_every : int;
  t_stop : float;
}

let config ?(dt = 1.0) ?(record_every = 2) ~t_stop tech =
  if dt <= 0. then invalid_arg "Sim.config: dt must be positive";
  if record_every < 1 then invalid_arg "Sim.config: record_every must be >= 1";
  { tech; dt; record_every; t_stop }

type trace = { sample_dt : float; volts : float array }

type result = {
  circuit : Netlist.t;
  run_config : config;
  traces : trace array;
  steps : int;
}

let run cfg c ~drives =
  let drives_tbl, levels =
    Drive.bind ~who:"Sim.run" (Halotis_engine.Compiled.compile cfg.tech c) drives
  in
  let vdd = Tech.vdd cfg.tech in
  let nsignals = Netlist.signal_count c and ngates = Netlist.gate_count c in
  let v = Array.init nsignals (fun sid -> if levels.(sid) then vdd else 0.) in
  (* Primary-input waveforms evaluated analytically each step. *)
  let input_wf = Array.make nsignals None in
  Hashtbl.iter
    (fun sid (d : Drive.t) ->
      let w = Waveform.create ~initial:(if d.Drive.initial then vdd else 0.) ~vdd () in
      List.iter (Waveform.append w) d.Drive.transitions;
      input_wf.(sid) <- Some w)
    drives_tbl;
  let loads = Halotis_delay.Loads.of_netlist cfg.tech c in
  let models =
    Array.init ngates (fun gid ->
        Macromodel.of_gate cfg.tech c ~loads gid)
  in
  let gate_out = Array.init ngates (fun gid -> (Netlist.gate c gid).Netlist.output) in
  let gate_fanin = Array.init ngates (fun gid -> (Netlist.gate c gid).Netlist.fanin) in
  let steps = int_of_float (Float.ceil (cfg.t_stop /. cfg.dt)) in
  let nsamples = (steps / cfg.record_every) + 1 in
  let traces =
    Array.init nsignals (fun _ ->
        { sample_dt = cfg.dt *. float_of_int cfg.record_every; volts = Array.make nsamples 0. })
  in
  let record sample_idx =
    if sample_idx < nsamples then
      for sid = 0 to nsignals - 1 do
        traces.(sid).volts.(sample_idx) <- v.(sid)
      done
  in
  record 0;
  let vins_scratch = Array.init ngates (fun gid -> Array.make (Array.length gate_fanin.(gid)) 0.) in
  let dv = Array.make ngates 0. in
  (* Ring buffer of recent node voltages: gates read their inputs
     [transport] ago, standing in for the intrinsic channel delay. *)
  let delay_steps =
    Array.map (fun m -> int_of_float (Float.round (m.Macromodel.transport /. cfg.dt))) models
  in
  let h_cap = Array.fold_left (fun acc d -> max acc d) 0 delay_steps + 2 in
  let hist = Array.init nsignals (fun sid -> Array.make h_cap v.(sid)) in
  for step = 1 to steps do
    let t = cfg.dt *. float_of_int step in
    (* Inputs follow their drive ramps exactly. *)
    Array.iteri
      (fun sid wopt ->
        match wopt with Some w -> v.(sid) <- Waveform.value_at w t | None -> ())
      input_wf;
    (* Gate output derivatives from the delayed state (Jacobi step),
       then commit; avoids order dependence along gate ids. *)
    for gid = 0 to ngates - 1 do
      let fanin = gate_fanin.(gid) in
      let vins = vins_scratch.(gid) in
      let delayed = max 0 (step - 1 - delay_steps.(gid)) in
      let slot = delayed mod h_cap in
      for pin = 0 to Array.length fanin - 1 do
        vins.(pin) <- hist.(fanin.(pin)).(slot)
      done;
      let goal = Macromodel.goal_voltage models.(gid) vins in
      dv.(gid) <- Macromodel.derivative models.(gid) ~v_out:v.(gate_out.(gid)) ~v_goal:goal
    done;
    for gid = 0 to ngates - 1 do
      let sid = gate_out.(gid) in
      v.(sid) <- Halotis_util.Approx.clamp ~lo:0. ~hi:vdd (v.(sid) +. (cfg.dt *. dv.(gid)))
    done;
    let write_slot = step mod h_cap in
    for sid = 0 to nsignals - 1 do
      hist.(sid).(write_slot) <- v.(sid)
    done;
    if step mod cfg.record_every = 0 then record (step / cfg.record_every)
  done;
  { circuit = c; run_config = cfg; traces; steps }

let trace result name =
  match Netlist.find_signal result.circuit name with
  | Some sid -> result.traces.(sid)
  | None -> raise Not_found

let value_at tr t =
  let n = Array.length tr.volts in
  if n = 0 then 0.
  else begin
    let pos = t /. tr.sample_dt in
    let i = int_of_float (Float.floor pos) in
    if i < 0 then tr.volts.(0)
    else if i >= n - 1 then tr.volts.(n - 1)
    else begin
      let frac = pos -. float_of_int i in
      tr.volts.(i) +. (frac *. (tr.volts.(i + 1) -. tr.volts.(i)))
    end
  end

let crossings tr ~vt =
  let n = Array.length tr.volts in
  let out = ref [] in
  for i = 0 to n - 2 do
    let a = tr.volts.(i) and b = tr.volts.(i + 1) in
    let t0 = tr.sample_dt *. float_of_int i in
    if a <= vt && b > vt then begin
      let frac = (vt -. a) /. (b -. a) in
      out :=
        { Digital.at = t0 +. (frac *. tr.sample_dt); polarity = Transition.Rising } :: !out
    end
    else if a >= vt && b < vt then begin
      let frac = (a -. vt) /. (a -. b) in
      out :=
        { Digital.at = t0 +. (frac *. tr.sample_dt); polarity = Transition.Falling } :: !out
    end
  done;
  List.rev !out

let edges result name = crossings (trace result name) ~vt:(Tech.vdd result.run_config.tech /. 2.)
