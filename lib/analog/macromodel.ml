module Gate_kind = Halotis_logic.Gate_kind
module Netlist = Halotis_netlist.Netlist
module Tech = Halotis_tech.Tech

type t = {
  kind : Gate_kind.t;
  vt : float array;
  switch_width : float;
  tau_rise : float;
  tau_fall : float;
  transport : float;
  vdd : float;
}

let of_gate tech c ~loads gid =
  let g = Netlist.gate c gid in
  let gt = Tech.gate_tech tech g.Netlist.kind in
  let cl = loads.(g.Netlist.output) in
  let vt =
    Array.init (Array.length g.Netlist.fanin) (fun pin ->
        Halotis_delay.Thresholds.input_vt tech c gid ~pin)
  in
  {
    kind = g.Netlist.kind;
    vt;
    switch_width = 0.5;
    tau_rise = Tech.output_slope (Tech.edge gt ~rising:true) ~cl /. 2.2;
    tau_fall = Tech.output_slope (Tech.edge gt ~rising:false) ~cl /. 2.2;
    transport =
      (let lag (p : Tech.edge_params) = p.Tech.d0 +. (p.Tech.d_load *. cl) in
       (lag (Tech.edge gt ~rising:true) +. lag (Tech.edge gt ~rising:false)) /. 2.);
    vdd = Tech.vdd tech;
  }

let sigmoid x = 1. /. (1. +. Float.exp (-.x))

let smooth_input m ~pin v = sigmoid ((v -. m.vt.(pin)) /. m.switch_width)

(* Fuzzy-logic extension: and = product, not = complement. *)
let fuzzy_eval kind xs =
  let n = Array.length xs in
  assert (n = Gate_kind.arity kind);
  let conj () = Array.fold_left ( *. ) 1. xs in
  let disj () = 1. -. Array.fold_left (fun acc x -> acc *. (1. -. x)) 1. xs in
  let fxor a b = (a *. (1. -. b)) +. (b *. (1. -. a)) in
  let parity () = Array.fold_left fxor 0. xs in
  match kind with
  | Gate_kind.Buf -> xs.(0)
  | Gate_kind.Inv -> 1. -. xs.(0)
  | Gate_kind.And _ -> conj ()
  | Gate_kind.Nand _ -> 1. -. conj ()
  | Gate_kind.Or _ -> disj ()
  | Gate_kind.Nor _ -> 1. -. disj ()
  | Gate_kind.Xor _ -> parity ()
  | Gate_kind.Xnor _ -> 1. -. parity ()
  | Gate_kind.Aoi21 ->
      let ab = xs.(0) *. xs.(1) in
      1. -. (1. -. ((1. -. ab) *. (1. -. xs.(2))))
  | Gate_kind.Oai21 ->
      let a_or_b = 1. -. ((1. -. xs.(0)) *. (1. -. xs.(1))) in
      1. -. (a_or_b *. xs.(2))
  | Gate_kind.Mux2 -> ((1. -. xs.(2)) *. xs.(0)) +. (xs.(2) *. xs.(1))

let goal_voltage m vins =
  let xs = Array.mapi (fun pin v -> smooth_input m ~pin v) vins in
  m.vdd *. fuzzy_eval m.kind xs

let derivative m ~v_out ~v_goal =
  let tau = if v_goal >= v_out then m.tau_rise else m.tau_fall in
  (v_goal -. v_out) /. tau
