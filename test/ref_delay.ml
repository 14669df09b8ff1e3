(* Reference delay evaluations for the equivalence suites: the uncached
   path that resolves the cell record through the technology lookup on
   every call, and a structured reading of the coefficient cache.  The
   engines call [Delay_model.Cache.eval] only; both functions here must
   agree with it bit for bit. *)

module Netlist = Halotis_netlist.Netlist
module Tech = Halotis_tech.Tech
module DM = Halotis_delay.Delay_model

let for_gate tech c ~loads gid kind req =
  let g = Netlist.gate c gid in
  let gate_tech = Tech.gate_tech tech g.Netlist.kind in
  DM.compute tech ~gate_tech ~cl:loads.(g.Netlist.output) kind req

(* The cached coefficients through the request/response shape of
   [DM.compute], every partial expression associated as it is there. *)
let cached cache gid kind (req : DM.request) =
  let ec = DM.Cache.edge_coefficients cache gid ~rising:req.DM.rising_out in
  let tp0 =
    DM.Cache.pin_factor cache gid ~pin:req.DM.pin
    *. (ec.DM.Cache.ec_d_base +. (ec.DM.Cache.ec_d_slope *. req.DM.tau_in))
  in
  let tau_out = ec.DM.Cache.ec_tau_out in
  let nominal = { DM.tp = tp0; tau_out; tp_nominal = tp0; degraded = false } in
  match (kind, req.DM.last_output_start) with
  | DM.Cdm, _ | DM.Ddm, None -> nominal
  | DM.Ddm, Some t_last ->
      let time_since_last = req.DM.t_event +. tp0 -. t_last in
      let t0 = Float.max 0.0 (ec.DM.Cache.ec_t0_coef *. req.DM.tau_in) in
      let tp =
        Halotis_tech.Calibrate.predicted_delay ~tp0 ~tau:ec.DM.Cache.ec_ddm_tau ~t0
          ~time_since_last
      in
      { nominal with DM.tp; degraded = tp < tp0 -. 1e-9 }
