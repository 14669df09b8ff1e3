module Tech = Halotis_tech.Tech
module Param_overlay = Halotis_tech.Param_overlay
module Netlist = Halotis_netlist.Netlist

type kind = Cdm | Ddm

let kind_to_string = function Cdm -> "CDM" | Ddm -> "DDM"

type request = {
  rising_out : bool;
  pin : int;
  tau_in : float;
  t_event : float;
  last_output_start : float option;
}

type response = { tp : float; tau_out : float; tp_nominal : float; degraded : bool }

let compute tech ~gate_tech ~cl kind req =
  let p = Tech.edge gate_tech ~rising:req.rising_out in
  let pin_factor = gate_tech.Tech.pin_factor req.pin in
  let tp0 = Tech.base_delay p ~pin_factor ~cl ~tau_in:req.tau_in in
  let tau_out = Tech.output_slope p ~cl in
  match kind with
  | Cdm -> { tp = tp0; tau_out; tp_nominal = tp0; degraded = false }
  | Ddm -> (
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

(* Per-run coefficient cache.  [Tech.gate_tech] is a lookup per call
   (each kind's cell is resolved once and kept), and the load term,
   output slope, degradation tau and the T0 coefficient of eqs. 2-3 are
   all invariant across a run.  The cache folds every per-(gate, edge)
   constant into flat unboxed float arrays once at setup, leaving only
   the [tau_in]- and [T]-dependent arithmetic per event.

   Layout: edge-indexed arrays use slot [2 * gid] for a rising output
   edge and [2 * gid + 1] for a falling one; per-pin factors are
   flattened with a per-gate offset table.  All partial expressions are
   evaluated exactly as {!compute} associates them, so cached delays are
   bit-identical to evaluating [compute] on the cell record. *)
module Cache = struct
  (* Coefficients are interleaved, five per (gate, edge), so one delay
     evaluation reads a single run of adjacent floats:
       base + 0 : d0 + d_load * CL
       base + 1 : d_slope
       base + 2 : clamped output slope
       base + 3 : clamped eq. 2 tau
       base + 4 : 1/2 - C/VDD (eq. 3 before the tau_in product) *)
  type nonrec t = {
    coef : float array;  (* (2 * gate + edge) * 5, edge 0 = rising *)
    pf_off : int array;  (* gate -> offset into [pf] *)
    pf : float array;  (* flattened per-pin factors *)
    scratch : float array;  (* [0] = tp, [1] = tau_out of the last [eval] *)
  }

  let create ?(overlay = Param_overlay.empty) tech c ~loads =
    let ngates = Netlist.gate_count c in
    let coef = Array.make (10 * ngates) 0. in
    let pf_off = Array.make ngates 0 in
    let npins = ref 0 in
    for gid = 0 to ngates - 1 do
      pf_off.(gid) <- !npins;
      npins := !npins + Array.length (Netlist.gate c gid).Netlist.fanin
    done;
    let pf = Array.make (max 1 !npins) 1. in
    (* Empty overlay: never consult it, so the coefficient bytes are
       those of the historical (overlay-free) cache by construction. *)
    let scaled = not (Param_overlay.is_empty overlay) in
    for gid = 0 to ngates - 1 do
      let g = Netlist.gate c gid in
      let gt = Tech.gate_tech tech g.Netlist.kind in
      let cl = loads.(g.Netlist.output) in
      List.iter
        (fun rising ->
          let p = Tech.edge gt ~rising in
          let p =
            if scaled then
              Param_overlay.apply_edge
                (Param_overlay.edge_scale overlay ~gate:gid ~rising)
                p
            else p
          in
          let base = 5 * ((2 * gid) + if rising then 0 else 1) in
          coef.(base) <- p.Tech.d0 +. (p.Tech.d_load *. cl);
          coef.(base + 1) <- p.Tech.d_slope;
          coef.(base + 2) <- Tech.output_slope p ~cl;
          coef.(base + 3) <- Tech.degradation_tau tech p ~cl;
          coef.(base + 4) <- Tech.degradation_t0_coef tech p)
        [ true; false ];
      for pin = 0 to Array.length g.Netlist.fanin - 1 do
        pf.(pf_off.(gid) + pin) <-
          (if scaled then
             gt.Tech.pin_factor pin
             *. Param_overlay.pin_scale overlay ~gate:gid ~pin
           else gt.Tech.pin_factor pin)
      done
    done;
    { coef; pf_off; pf; scratch = Array.make 2 0. }

  (* The event hot paths' delay evaluation: scalar arguments in,
     results deposited in [scratch] (read them with {!tp} / {!tau_out}
     before the next [eval]), so no request or response record is
     built.  [last_output_start] is [Float.nan] when the output has no
     previous transition — legitimate start instants are always finite,
     so the encoding is exact.  Eq. 2 is written out here rather than
     called in [Calibrate.predicted_delay]: its four float arguments
     and its result would each be boxed, as every float that crosses a
     module boundary is under the dev profile. *)
  let eval cache gid kind ~rising_out ~pin ~tau_in ~t_event ~last_output_start =
    let base = 5 * ((2 * gid) + if rising_out then 0 else 1) in
    let tp0 =
      cache.pf.(cache.pf_off.(gid) + pin)
      *. (cache.coef.(base) +. (cache.coef.(base + 1) *. tau_in))
    in
    cache.scratch.(1) <- cache.coef.(base + 2);
    match kind with
    | Cdm -> cache.scratch.(0) <- tp0
    | Ddm ->
        if Float.is_nan last_output_start then cache.scratch.(0) <- tp0
        else begin
          let time_since_last = t_event +. tp0 -. last_output_start in
          let t0 = Float.max 0.0 (cache.coef.(base + 4) *. tau_in) in
          (* [Calibrate.predicted_delay ~tp0 ~tau ~t0 ~time_since_last] *)
          cache.scratch.(0) <-
            (if tp0 <= 0. then 0.
             else begin
               let tau = cache.coef.(base + 3) in
               let raw = tp0 *. (1. -. Float.exp (-.(time_since_last -. t0) /. tau)) in
               if raw < 0. then 0. else if raw > tp0 then tp0 else raw
             end)
        end

  let tp cache = cache.scratch.(0)
  let tau_out cache = cache.scratch.(1)

  (* Read-only views of the cached per-(gate, edge) coefficients, for
     static analyses that must bound eqs. 1-3 with exactly the numbers
     the event kernel evaluates (same clamps, same associations). *)

  type edge_coefficients = {
    ec_d_base : float;  (* d0 + d_load * CL *)
    ec_d_slope : float;
    ec_tau_out : float;  (* clamped output slope *)
    ec_ddm_tau : float;  (* clamped eq. 2 tau *)
    ec_t0_coef : float;  (* 1/2 - C/VDD, eq. 3 before the tau_in product *)
  }

  let edge_coefficients cache gid ~rising =
    let base = 5 * ((2 * gid) + if rising then 0 else 1) in
    {
      ec_d_base = cache.coef.(base);
      ec_d_slope = cache.coef.(base + 1);
      ec_tau_out = cache.coef.(base + 2);
      ec_ddm_tau = cache.coef.(base + 3);
      ec_t0_coef = cache.coef.(base + 4);
    }

  let pin_factor cache gid ~pin = cache.pf.(cache.pf_off.(gid) + pin)
end
