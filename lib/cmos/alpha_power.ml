module Tech = Halotis_tech.Tech
module Gate_kind = Halotis_logic.Gate_kind

type device = { vth : float; alpha : float; i_d0 : float }

type inverter = {
  vdd : float;
  nmos : device;
  pmos : device;
  c_intrinsic : float;
}

let default_inverter =
  {
    vdd = 5.0;
    nmos = { vth = 0.8; alpha = 1.3; i_d0 = 1.5 };
    pmos = { vth = 0.9; alpha = 1.3; i_d0 = 1.0 };
    c_intrinsic = 4.0;
  }

(* The device doing the work: pull-up (PMOS) for a rising output. *)
let driver inv ~rising_out = if rising_out then inv.pmos else inv.nmos

(* Input-slope sensitivity: 1/2 - (1 - vth/Vdd) / (1 + alpha).  With
   fF, V and mA, the charge term C*V/I comes out directly in ps. *)
let slope_coefficient inv dev =
  let vthn = dev.vth /. inv.vdd in
  Float.max 0. (0.5 -. ((1. -. vthn) /. (1. +. dev.alpha)))

(* The closed form [tp] (see the interface) split into the affine
   coefficients of [Tech.base_delay]; the output ramp is the saturation
   discharge time C Vdd / I_D0, widened by the usual 10-90 ->
   rail-to-rail factor 1.5. *)
let to_edge_params inv ~rising_out ~base =
  let dev = driver inv ~rising_out in
  {
    base with
    Tech.d0 = inv.c_intrinsic *. inv.vdd /. (2. *. dev.i_d0);
    d_load = inv.vdd /. (2. *. dev.i_d0);
    d_slope = slope_coefficient inv dev;
    s0 = 1.5 *. inv.c_intrinsic *. inv.vdd /. dev.i_d0;
    s_load = 1.5 *. inv.vdd /. dev.i_d0;
  }

let default_sizing = function
  | Gate_kind.Inv -> 1.0
  | Gate_kind.Buf -> 0.9
  | Gate_kind.Nand n | Gate_kind.Nor n -> 0.75 /. (1. +. (0.15 *. float_of_int (max 0 (n - 2))))
  | Gate_kind.And n | Gate_kind.Or n -> 0.6 /. (1. +. (0.15 *. float_of_int (max 0 (n - 2))))
  | Gate_kind.Xor _ | Gate_kind.Xnor _ -> 0.45
  | Gate_kind.Aoi21 | Gate_kind.Oai21 -> 0.65
  | Gate_kind.Mux2 -> 0.5

let scaled inv k =
  {
    inv with
    nmos = { inv.nmos with i_d0 = inv.nmos.i_d0 *. k };
    pmos = { inv.pmos with i_d0 = inv.pmos.i_d0 *. k };
    c_intrinsic = inv.c_intrinsic *. Float.max 0.5 k;
  }

let at_vdd inv vdd =
  let rescale (d : device) =
    let num = Float.max 0.05 (vdd -. d.vth) in
    let den = Float.max 0.05 (inv.vdd -. d.vth) in
    { d with i_d0 = d.i_d0 *. ((num /. den) ** d.alpha) }
  in
  { inv with vdd; nmos = rescale inv.nmos; pmos = rescale inv.pmos }

let to_tech ?(name = "alpha-power") ~base inv ~sized =
  let vt_scale = inv.vdd /. Tech.vdd base in
  let lookup kind =
    let gt = Tech.gate_tech base kind in
    let cell = scaled inv (sized kind) in
    {
      gt with
      Tech.rise = to_edge_params cell ~rising_out:true ~base:gt.Tech.rise;
      fall = to_edge_params cell ~rising_out:false ~base:gt.Tech.fall;
      (* thresholds track the supply (midpoint switching) *)
      default_vt = gt.Tech.default_vt *. vt_scale;
    }
  in
  Tech.create ~name ~vdd:inv.vdd ~wire_cap_per_fanout:(Tech.wire_cap_per_fanout base)
    ~lookup ()
