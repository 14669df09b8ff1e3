type scale = {
  sc_d0 : float;
  sc_d_load : float;
  sc_d_slope : float;
  sc_s0 : float;
  sc_s_load : float;
  sc_ddm_a : float;
  sc_ddm_b : float;
  sc_ddm_c : float;
}

let scale_identity =
  {
    sc_d0 = 1.0;
    sc_d_load = 1.0;
    sc_d_slope = 1.0;
    sc_s0 = 1.0;
    sc_s_load = 1.0;
    sc_ddm_a = 1.0;
    sc_ddm_b = 1.0;
    sc_ddm_c = 1.0;
  }

(* Bitwise float equality: a corner at exactly 1.0 is the identity; a
   corner at 1.0 + 1e-17 is not, and must survive into the
   fingerprint.  [Float.equal] would also treat nan = nan, which is
   fine — a nan factor is degenerate either way. *)
let feq a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let scale_equal a b =
  feq a.sc_d0 b.sc_d0 && feq a.sc_d_load b.sc_d_load
  && feq a.sc_d_slope b.sc_d_slope && feq a.sc_s0 b.sc_s0
  && feq a.sc_s_load b.sc_s_load && feq a.sc_ddm_a b.sc_ddm_a
  && feq a.sc_ddm_b b.sc_ddm_b && feq a.sc_ddm_c b.sc_ddm_c

type entry = {
  en_rise : scale;
  en_fall : scale;
  en_vt : float;
  en_pin : (int * float) list;
}

let entry_identity =
  { en_rise = scale_identity; en_fall = scale_identity; en_vt = 1.0; en_pin = [] }

let norm_pins pins =
  List.sort_uniq (fun (a, _) (b, _) -> compare a b)
    (List.filter (fun (_, f) -> not (feq f 1.0)) pins)

let norm_entry e = { e with en_pin = norm_pins e.en_pin }

let entry_equal a b =
  scale_equal a.en_rise b.en_rise
  && scale_equal a.en_fall b.en_fall
  && feq a.en_vt b.en_vt
  && List.length a.en_pin = List.length b.en_pin
  && List.for_all2 (fun (pa, fa) (pb, fb) -> pa = pb && feq fa fb) a.en_pin
       b.en_pin

let entry_is_identity e = entry_equal e entry_identity

module IMap = Map.Make (Int)

type t = entry IMap.t

let empty = IMap.empty
let is_empty = IMap.is_empty

let set t ~gate e =
  let e = norm_entry e in
  if entry_is_identity e then IMap.remove gate t else IMap.add gate e t

let find t ~gate =
  match IMap.find_opt gate t with Some e -> e | None -> entry_identity

let edge_scale t ~gate ~rising =
  let e = find t ~gate in
  if rising then e.en_rise else e.en_fall

let vt_scale t ~gate = (find t ~gate).en_vt

let pin_scale t ~gate ~pin =
  match List.assoc_opt pin (find t ~gate).en_pin with
  | Some f -> f
  | None -> 1.0

let apply_edge s (p : Tech.edge_params) =
  {
    Tech.d0 = p.Tech.d0 *. s.sc_d0;
    d_load = p.Tech.d_load *. s.sc_d_load;
    d_slope = p.Tech.d_slope *. s.sc_d_slope;
    s0 = p.Tech.s0 *. s.sc_s0;
    s_load = p.Tech.s_load *. s.sc_s_load;
    ddm_a = p.Tech.ddm_a *. s.sc_ddm_a;
    ddm_b = p.Tech.ddm_b *. s.sc_ddm_b;
    ddm_c = p.Tech.ddm_c *. s.sc_ddm_c;
  }

let equal = IMap.equal entry_equal

let fingerprint t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "halotis-overlay v1\n";
  IMap.iter
    (fun gate e ->
      let sc tag s =
        Buffer.add_string buf
          (Printf.sprintf "%s %h %h %h %h %h %h %h %h\n" tag s.sc_d0
             s.sc_d_load s.sc_d_slope s.sc_s0 s.sc_s_load s.sc_ddm_a
             s.sc_ddm_b s.sc_ddm_c)
      in
      Buffer.add_string buf (Printf.sprintf "g %d\n" gate);
      sc "r" e.en_rise;
      sc "f" e.en_fall;
      Buffer.add_string buf (Printf.sprintf "vt %h\n" e.en_vt);
      List.iter
        (fun (pin, f) ->
          Buffer.add_string buf (Printf.sprintf "pin %d %h\n" pin f))
        e.en_pin)
    t;
  Digest.to_hex (Digest.string (Buffer.contents buf))

