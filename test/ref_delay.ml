(* Reference delay evaluations for the equivalence suites: the uncached
   path that resolves the cell record through the technology lookup on
   every call, and a structured reading of the coefficient cache.  The
   engines call [Delay_model.Cache.eval] only; every function here must
   agree with it bit for bit. *)

module Netlist = Halotis_netlist.Netlist
module Tech = Halotis_tech.Tech
module Param_overlay = Halotis_tech.Param_overlay
module DM = Halotis_delay.Delay_model

type request = {
  rising_out : bool;  (* direction of the candidate output transition *)
  pin : int;  (* input pin whose event triggers the evaluation *)
  tau_in : float;  (* slope time of the causing input transition, ps *)
  t_event : float;  (* instant of the input event, ps *)
  last_output_start : float option;
      (* start of the most recent live output transition; [None] when
         the output never switched *)
}

type response = {
  tp : float;  (* propagation delay to the output ramp start, ps; >= 0 *)
  tau_out : float;  (* output ramp full-swing time, ps *)
  tp_nominal : float;  (* the undegraded [tp0], ps *)
  degraded : bool;  (* [tp < tp_nominal] beyond tolerance *)
}

(* Eqs. 1-3 straight from a cell record: [cl] is the output load in
   fF.  [Delay_model.Cache] associates every partial expression as this
   does. *)
let compute tech ~gate_tech ~cl kind req =
  let p = Tech.edge gate_tech ~rising:req.rising_out in
  let pin_factor = gate_tech.Tech.pin_factor req.pin in
  let tp0 = Tech.base_delay p ~pin_factor ~cl ~tau_in:req.tau_in in
  let tau_out = Tech.output_slope p ~cl in
  match kind with
  | DM.Cdm -> { tp = tp0; tau_out; tp_nominal = tp0; degraded = false }
  | DM.Ddm -> (
      match req.last_output_start with
      | None -> { tp = tp0; tau_out; tp_nominal = tp0; degraded = false }
      | Some t_last ->
          let time_since_last = req.t_event +. tp0 -. t_last in
          let tau = Tech.degradation_tau tech p ~cl in
          let t0 = Tech.degradation_t0 tech p ~tau_in:req.tau_in in
          let tp =
            Halotis_tech.Calibrate.predicted_delay ~tp0 ~tau ~t0 ~time_since_last
          in
          { tp; tau_out; tp_nominal = tp0; degraded = tp < tp0 -. 1e-9 })

(* [overlay] scales the cell record's edge parameters and pin factors
   before [compute] sees them, the way [DM.Cache.create] scales them
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
  compute tech ~gate_tech ~cl:loads.(g.Netlist.output) kind req

(* The cached coefficients through the request/response shape of
   [compute], every partial expression associated as it is there. *)
let cached cache gid kind (req : request) =
  let ec = DM.Cache.edge_coefficients cache gid ~rising:req.rising_out in
  let tp0 =
    DM.Cache.pin_factor cache gid ~pin:req.pin
    *. (ec.DM.Cache.ec_d_base +. (ec.DM.Cache.ec_d_slope *. req.tau_in))
  in
  let tau_out = ec.DM.Cache.ec_tau_out in
  let nominal = { tp = tp0; tau_out; tp_nominal = tp0; degraded = false } in
  match (kind, req.last_output_start) with
  | DM.Cdm, _ | DM.Ddm, None -> nominal
  | DM.Ddm, Some t_last ->
      let time_since_last = req.t_event +. tp0 -. t_last in
      let t0 = Float.max 0.0 (ec.DM.Cache.ec_t0_coef *. req.tau_in) in
      let tp =
        Halotis_tech.Calibrate.predicted_delay ~tp0 ~tau:ec.DM.Cache.ec_ddm_tau ~t0
          ~time_since_last
      in
      { nominal with tp; degraded = tp < tp0 -. 1e-9 }
