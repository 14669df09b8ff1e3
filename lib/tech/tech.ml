type edge_params = {
  d0 : float;
  d_load : float;
  d_slope : float;
  s0 : float;
  s_load : float;
  ddm_a : float;
  ddm_b : float;
  ddm_c : float;
}

type gate_tech = {
  rise : edge_params;
  fall : edge_params;
  input_cap : float;
  default_vt : float;
  pin_factor : int -> float;
}

type t = {
  tech_name : string;
  tech_vdd : float;
  wire_cap : float;
  lookup : Halotis_logic.Gate_kind.t -> gate_tech;
  cells : gate_tech option array;  (* [memo_slot kind] -> [lookup kind] once resolved *)
}

(* A library's lookup may build a fresh cell record on every call (the
   default one does), and the compile path asks once per pin.  Each kind
   is resolved once and kept: the fixed-pin kinds and the n-ary ones up
   to [memo_arity] inputs each own a slot; wider gates ask [lookup]
   every time. *)
let memo_arity = 16

let memo_slot (kind : Halotis_logic.Gate_kind.t) =
  let nary family n = if n >= 1 && n <= memo_arity then 5 + (family * memo_arity) + n - 1 else -1 in
  match kind with
  | Buf -> 0
  | Inv -> 1
  | Aoi21 -> 2
  | Oai21 -> 3
  | Mux2 -> 4
  | And n -> nary 0 n
  | Nand n -> nary 1 n
  | Or n -> nary 2 n
  | Nor n -> nary 3 n
  | Xor n -> nary 4 n
  | Xnor n -> nary 5 n

let create ~name ~vdd ?(wire_cap_per_fanout = 2.0) ~lookup () =
  if vdd <= 0. then invalid_arg "Tech.create: vdd must be positive";
  {
    tech_name = name;
    tech_vdd = vdd;
    wire_cap = wire_cap_per_fanout;
    lookup;
    cells = Array.make (5 + (6 * memo_arity)) None;
  }

let name t = t.tech_name
let vdd t = t.tech_vdd
let wire_cap_per_fanout t = t.wire_cap

let gate_tech t kind =
  let slot = memo_slot kind in
  if slot < 0 then t.lookup kind
  else
    match t.cells.(slot) with
    | Some gt -> gt
    | None ->
        let gt = t.lookup kind in
        t.cells.(slot) <- Some gt;
        gt

let edge gt ~rising = if rising then gt.rise else gt.fall

let base_delay p ~pin_factor ~cl ~tau_in =
  pin_factor *. (p.d0 +. (p.d_load *. cl) +. (p.d_slope *. tau_in))

let raw_output_slope p ~cl = p.s0 +. (p.s_load *. cl)

let raw_degradation_tau t p ~cl = (p.ddm_a +. (p.ddm_b *. cl)) /. t.tech_vdd

let degradation_t0_coef t p = 0.5 -. (p.ddm_c /. t.tech_vdd)

let raw_degradation_t0 t p ~tau_in = degradation_t0_coef t p *. tau_in

let output_slope p ~cl = Float.max 1.0 (raw_output_slope p ~cl)

let degradation_tau t p ~cl = Float.max 1.0 (raw_degradation_tau t p ~cl)

let degradation_t0 t p ~tau_in = Float.max 0.0 (raw_degradation_t0 t p ~tau_in)
