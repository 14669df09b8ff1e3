(* Reference delay evaluations for the equivalence suites: the uncached
   path that resolves the cell record through the technology lookup on
   every call, and a structured reading of the coefficient cache.  The
   engines call [Delay_model.Cache.eval] only; both functions here must
   agree with it bit for bit. *)

module Netlist = Halotis_netlist.Netlist
module Tech = Halotis_tech.Tech
module Param_overlay = Halotis_tech.Param_overlay
module DM = Halotis_delay.Delay_model

(* [overlay] scales the cell record's edge parameters and pin factors
   before [DM.compute] sees them, the way [DM.Cache.create] scales them
   before deriving its coefficients; the empty overlay is not applied. *)
let for_gate ?(overlay = Param_overlay.empty) tech c ~loads gid kind req =
  let g = Netlist.gate c gid in
  let gate_tech = Tech.gate_tech tech g.Netlist.kind in
  let gate_tech =
    if Param_overlay.is_empty overlay then gate_tech
    else
      let edge rising p =
        Param_overlay.apply_edge (Param_overlay.edge_scale overlay ~gate:gid ~rising) p
      in
      {
        gate_tech with
        Tech.rise = edge true gate_tech.Tech.rise;
        fall = edge false gate_tech.Tech.fall;
        pin_factor =
          (fun pin ->
            gate_tech.Tech.pin_factor pin *. Param_overlay.pin_scale overlay ~gate:gid ~pin);
      }
  in
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
