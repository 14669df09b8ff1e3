module Netlist = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check
module Tech = Halotis_tech.Tech
module Calibrate = Halotis_tech.Calibrate
module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value
module Delay_model = Halotis_delay.Delay_model
module Cache = Halotis_delay.Delay_model.Cache
module Thresholds = Halotis_delay.Thresholds
module Loads = Halotis_delay.Loads
module Json = Halotis_util.Json

(* Safety margin (ps) around every threshold comparison: the engine and
   this analysis compute the same crossings with differently associated
   float expressions, so equality-zone sites are never decided
   statically. *)
let margin = 1e-6

(* The abstract domain: one SET pulse on a wire, as interval bounds.
   [pb_w] is the ramp-start separation of the two pulse edges; the
   slope intervals collapse to points everywhere except after a merge
   in the baseline-free may-analysis. *)
type pb = {
  pb_rising : bool;  (* leading-edge polarity; the wire rests at the opposite rail *)
  pb_sl_lo : float;  (* leading-edge slope time bounds, ps *)
  pb_sl_hi : float;
  pb_st_lo : float;  (* trailing-edge slope time bounds, ps *)
  pb_st_hi : float;
  pb_w_lo : float;  (* ramp-start separation bounds, ps *)
  pb_w_hi : float;
}

let pb_point ~rising ~slope ~width =
  {
    pb_rising = rising;
    pb_sl_lo = slope;
    pb_sl_hi = slope;
    pb_st_lo = slope;
    pb_st_hi = slope;
    pb_w_lo = width;
    pb_w_hi = width;
  }

(* Shared per-circuit context; the delay coefficients come from the
   same cache the event kernel reads, so the transfer function bounds
   exactly the numbers a simulation would evaluate. *)
type ctx = {
  cx_tech : Tech.t;
  cx_c : Netlist.t;
  cx_kind : Delay_model.kind;
  cx_vdd : float;
  cx_vt : float array array;
  cx_cache : Cache.t;
  cx_order : Netlist.gate_id list;
}

let ctx_make ~kind tech c ~order =
  let loads = Loads.of_netlist tech c in
  {
    cx_tech = tech;
    cx_c = c;
    cx_kind = kind;
    cx_vdd = Tech.vdd tech;
    cx_vt = Thresholds.table tech c;
    cx_cache = Cache.create tech c ~loads;
    cx_order = order;
  }

(* Voltage fraction of the leading edge's swing up to [vt]: how far the
   ramp must travel (as a fraction of full swing) before the pin sees
   the edge. *)
let vt_frac cx pb ~vt =
  if vt <= 0. || vt >= cx.cx_vdd then None
  else Some (if pb.pb_rising then vt /. cx.cx_vdd else (cx.cx_vdd -. vt) /. cx.cx_vdd)

(* Separation of the two threshold crossings at a pin, as a function of
   the ramp-start separation [w] (only meaningful when the pulse fires,
   i.e. [w > sl * frac]).  [q = min (w / sl) 1] is the fraction of full
   swing the leading ramp travels before the trailing one truncates
   it.  Monotone increasing in [w] and [st], decreasing in [sl]. *)
let cross_sep ~frac ~sl ~st w = w +. (st *. (Float.min (w /. sl) 1. -. frac)) -. (sl *. frac)

type fate =
  | Dead  (* the pulse certainly never crosses this pin's threshold *)
  | Fires of float * float  (* certain crossing; [wc_lo, wc_hi] crossing separation *)
  | Straddle of float  (* undecided; [wc_hi] bound if it does fire *)

(* May-analysis view of a fate: the crossing-separation interval if the
   pulse possibly fires, [None] if it certainly dies. *)
let fate_bounds = function
  | Dead -> None
  | Fires (lo, hi) -> Some (lo, hi)
  | Straddle hi -> Some (0., hi)

let pin_fate cx pb ~vt =
  match vt_frac cx pb ~vt with
  | None -> None
  | Some frac ->
      let tc_lo = pb.pb_sl_lo *. frac and tc_hi = pb.pb_sl_hi *. frac in
      if pb.pb_w_hi <= tc_lo -. margin then Some Dead
      else if pb.pb_w_lo >= tc_hi +. margin then begin
        let wc_lo =
          Float.max 0. (cross_sep ~frac ~sl:pb.pb_sl_hi ~st:pb.pb_st_lo pb.pb_w_lo)
        in
        let wc_hi = cross_sep ~frac ~sl:pb.pb_sl_lo ~st:pb.pb_st_hi pb.pb_w_hi in
        Some (Fires (wc_lo, wc_hi))
      end
      else Some (Straddle (Float.max 0. (cross_sep ~frac ~sl:pb.pb_sl_lo ~st:pb.pb_st_hi pb.pb_w_hi)))

(* The per-gate width transfer function.  The leading output edge's
   delay is bounded below by 0 (full DDM collapse), the trailing one
   above by eq. 1 evaluated at the largest feasible time-since-last
   [T_hi = wc_hi + tp0_t - tp1_lo] — eq. 1 is monotone in T, and tau /
   T0 come from the engine's own cached (clamped) coefficients. *)
let through_gate cx ~gid ~pin ~rising_out ~wc_lo ~wc_hi ~(pb : pb) =
  let co_l = Cache.edge_coefficients cx.cx_cache gid ~rising:rising_out in
  let co_t = Cache.edge_coefficients cx.cx_cache gid ~rising:(not rising_out) in
  let pf = Cache.pin_factor cx.cx_cache gid ~pin in
  let tp0 (co : Cache.edge_coefficients) tau_in =
    pf *. (co.Cache.ec_d_base +. (co.Cache.ec_d_slope *. tau_in))
  in
  let tp0_l_a = tp0 co_l pb.pb_sl_lo and tp0_l_b = tp0 co_l pb.pb_sl_hi in
  let tp0_l_lo = Float.min tp0_l_a tp0_l_b and tp0_l_hi = Float.max tp0_l_a tp0_l_b in
  let tp0_t_a = tp0 co_t pb.pb_st_lo and tp0_t_b = tp0 co_t pb.pb_st_hi in
  let tp0_t_lo = Float.min tp0_t_a tp0_t_b and tp0_t_hi = Float.max tp0_t_a tp0_t_b in
  let tp1_lo, tp1_hi, tp2_lo, tp2_hi =
    match cx.cx_kind with
    | Delay_model.Cdm -> (tp0_l_lo, tp0_l_hi, tp0_t_lo, tp0_t_hi)
    | Delay_model.Ddm ->
        let t0_a = Float.max 0. (co_t.Cache.ec_t0_coef *. pb.pb_st_lo)
        and t0_b = Float.max 0. (co_t.Cache.ec_t0_coef *. pb.pb_st_hi) in
        let t0_lo = Float.min t0_a t0_b in
        let tp1_lo = Float.min 0. tp0_l_lo in
        let t_hi = wc_hi +. tp0_t_hi -. tp1_lo in
        let tp2_hi =
          Float.max 0.
            (Calibrate.predicted_delay ~tp0:tp0_t_hi ~tau:co_t.Cache.ec_ddm_tau ~t0:t0_lo
               ~time_since_last:t_hi)
        in
        (tp1_lo, Float.max 0. tp0_l_hi, Float.min 0. tp0_t_lo, tp2_hi)
  in
  let w_out_lo = Float.max 0. (wc_lo +. tp2_lo -. tp1_hi) in
  let w_out_hi = wc_hi +. tp2_hi -. tp1_lo in
  if w_out_hi <= 0. then None
  else
    Some
      {
        pb_rising = rising_out;
        pb_sl_lo = co_l.Cache.ec_tau_out;
        pb_sl_hi = co_l.Cache.ec_tau_out;
        pb_st_lo = co_t.Cache.ec_tau_out;
        pb_st_hi = co_t.Cache.ec_tau_out;
        pb_w_lo = w_out_lo;
        pb_w_hi = w_out_hi;
      }

(* Can the pulse put a digital edge (VDD/2 crossing) on its wire? *)
let may_cross_digital pb = pb.pb_w_hi > (0.5 *. pb.pb_sl_lo) -. margin

(* {1 Baseline-free vulnerability map} *)

let can_cause kind ~in_rising ~out_rising =
  match kind with
  | Gate_kind.Inv | Gate_kind.Nand _ | Gate_kind.Nor _ | Gate_kind.Aoi21 | Gate_kind.Oai21 ->
      in_rising <> out_rising
  | Gate_kind.Buf | Gate_kind.And _ | Gate_kind.Or _ -> in_rising = out_rising
  | Gate_kind.Xor _ | Gate_kind.Xnor _ | Gate_kind.Mux2 -> true

type t = {
  an_cx : ctx;
  an_width : float;
  an_slope : float;
  an_blocked : bool array;  (* gate output forced constant: can never emit *)
  an_candidates : Netlist.signal_id list;
  an_atten : float option array;
  an_reach : (Netlist.signal_id * bool) -> bool;  (* canonical pulse reaches some PO *)
  an_surviving : float array array Lazy.t;  (* [sid].[0=rising,1=falling] *)
  an_weakest : (Netlist.signal_id * float) list Lazy.t;
}

let pb_merge a b =
  {
    pb_rising = a.pb_rising;
    pb_sl_lo = Float.min a.pb_sl_lo b.pb_sl_lo;
    pb_sl_hi = Float.max a.pb_sl_hi b.pb_sl_hi;
    pb_st_lo = Float.min a.pb_st_lo b.pb_st_lo;
    pb_st_hi = Float.max a.pb_st_hi b.pb_st_hi;
    pb_w_lo = Float.min a.pb_w_lo b.pb_w_lo;
    pb_w_hi = Float.max a.pb_w_hi b.pb_w_hi;
  }

(* May-propagation with unknown input vectors: every non-blocked gate
   is assumed sensitizable, output polarities follow gate unateness,
   merges widen component-wise.  Returns, per signal, the per-polarity
   pulse bound reaching it (index 0 = rising leading edge). *)
let static_walk cx blocked ~sid0 ~rising0 ~width ~slope =
  let nsignals = Netlist.signal_count cx.cx_c in
  let pulse = Array.make (2 * nsignals) None in
  let slot sid rising = (2 * sid) + if rising then 0 else 1 in
  let put sid pb =
    let i = slot sid pb.pb_rising in
    pulse.(i) <- Some (match pulse.(i) with None -> pb | Some old -> pb_merge old pb)
  in
  put sid0 (pb_point ~rising:rising0 ~slope ~width);
  List.iter
    (fun gid ->
      let g = Netlist.gate cx.cx_c gid in
      if not blocked.(gid) then
        Array.iteri
          (fun pin fid ->
            List.iter
              (fun in_rising ->
                match pulse.(slot fid in_rising) with
                | None -> ()
                | Some pb -> (
                    match Option.bind (pin_fate cx pb ~vt:cx.cx_vt.(gid).(pin)) fate_bounds with
                    | None -> ()
                    | Some (wc_lo, wc_hi) ->
                        List.iter
                          (fun out_rising ->
                            if can_cause g.Netlist.kind ~in_rising ~out_rising then
                              match
                                through_gate cx ~gid ~pin ~rising_out:out_rising ~wc_lo
                                  ~wc_hi ~pb
                              with
                              | None -> ()
                              | Some pb' -> put g.Netlist.output pb')
                          [ true; false ]))
              [ true; false ])
          g.Netlist.fanin)
    cx.cx_order;
  fun sid rising -> pulse.(slot sid rising)

let reached_pos cx blocked ~pos ~sid0 ~rising0 ~width ~slope =
  let at_ = static_walk cx blocked ~sid0 ~rising0 ~width ~slope in
  List.filter
    (fun po ->
      List.exists
        (fun r -> match at_ po r with Some pb -> may_cross_digital pb | None -> false)
        [ true; false ])
    pos

let w_search_max = 1e6

let min_surviving_width cx blocked ~pos ~sid0 ~rising0 ~slope ~hits =
  let reaches w =
    List.exists hits (reached_pos cx blocked ~pos ~sid0 ~rising0 ~width:w ~slope)
  in
  if not (reaches w_search_max) then infinity
  else begin
    let lo = ref 0. and hi = ref w_search_max in
    for _ = 1 to 60 do
      let mid = 0.5 *. (!lo +. !hi) in
      if reaches mid then hi := mid else lo := mid
    done;
    !hi
  end

let analyze ?(width = 150.) ?(slope = 100.) ?(kind = Delay_model.Ddm) tech c =
  let order =
    match Check.topological_gates c with
    | Some o -> o
    | None -> Sta.fail_cyclic c ~what:"Survival.analyze"
  in
  let cx = ctx_make ~kind tech c ~order in
  let constants = Check.constant_signals c in
  let blocked =
    Array.map
      (fun (g : Netlist.gate) ->
        match constants.(g.Netlist.output) with Value.L0 | Value.L1 -> true | _ -> false)
      (Netlist.gates c)
  in
  let candidates =
    Array.to_list (Netlist.signals c)
    |> List.filter_map (fun (s : Netlist.signal) ->
           match (s.Netlist.driver, s.Netlist.constant) with
           | Some _, None -> Some s.Netlist.signal_id
           | _ -> None)
  in
  let pos = Netlist.primary_outputs c in
  (* Per-gate attenuation bound: the canonical pulse straight into each
     pin; worst (most amplifying) surviving width change across pins
     and polarities, [None] when every pin filters it. *)
  let atten =
    Array.map
      (fun (g : Netlist.gate) ->
        let gid = g.Netlist.gate_id in
        let best = ref None in
        Array.iteri
          (fun pin _ ->
            List.iter
              (fun in_rising ->
                let pb = pb_point ~rising:in_rising ~slope ~width in
                match Option.bind (pin_fate cx pb ~vt:cx.cx_vt.(gid).(pin)) fate_bounds with
                | None -> ()
                | Some (wc_lo, wc_hi) ->
                    List.iter
                      (fun out_rising ->
                        if can_cause g.Netlist.kind ~in_rising ~out_rising then
                          match
                            through_gate cx ~gid ~pin ~rising_out:out_rising ~wc_lo
                              ~wc_hi ~pb
                          with
                          | None -> ()
                          | Some pb' ->
                              let d = pb'.pb_w_hi -. width in
                              best :=
                                Some
                                  (match !best with
                                  | None -> d
                                  | Some b -> Float.max b d))
                      [ true; false ])
              [ true; false ])
          g.Netlist.fanin;
        !best)
      (Netlist.gates c)
  in
  let reach (sid, rising) =
    reached_pos cx blocked ~pos ~sid0:sid ~rising0:rising ~width ~slope <> []
  in
  let surviving =
    lazy
      (let a = Array.make_matrix (Netlist.signal_count c) 2 infinity in
       List.iter
         (fun sid ->
           List.iter
             (fun rising ->
               a.(sid).(if rising then 0 else 1) <-
                 min_surviving_width cx blocked ~pos ~sid0:sid ~rising0:rising ~slope
                   ~hits:(fun _ -> true))
             [ true; false ])
         candidates;
       a)
  in
  let weakest =
    lazy
      (List.map
         (fun po ->
           let best = ref infinity in
           List.iter
             (fun sid ->
               List.iter
                 (fun rising ->
                   let w =
                     min_surviving_width cx blocked ~pos:[ po ] ~sid0:sid ~rising0:rising
                       ~slope ~hits:(fun p -> p = po)
                   in
                   if w < !best then best := w)
                 [ true; false ])
             candidates;
           (po, !best))
         pos)
  in
  {
    an_cx = cx;
    an_width = width;
    an_slope = slope;
    an_blocked = blocked;
    an_candidates = candidates;
    an_atten = atten;
    an_reach = reach;
    an_surviving = surviving;
    an_weakest = weakest;
  }

let width t = t.an_width
let slope t = t.an_slope
let candidates t = t.an_candidates
let gate_attenuation t gid = t.an_atten.(gid)
let surviving_width t sid ~rising = (Lazy.force t.an_surviving).(sid).(if rising then 0 else 1)
let weakest_surviving t = Lazy.force t.an_weakest

let all_sites_filtered t =
  t.an_candidates <> []
  && List.for_all
       (fun sid -> not (t.an_reach (sid, true) || t.an_reach (sid, false)))
       t.an_candidates

let num_or_null v = if Float.is_finite v then Json.Num v else Json.Null

let to_json t =
  let c = t.an_cx.cx_c in
  Json.Obj
    [
      ("tool", Json.Str "halotis-survival");
      ("circuit", Json.Str (Netlist.name c));
      ("delay_model", Json.Str (Delay_model.kind_to_string t.an_cx.cx_kind));
      ("pulse", Json.Obj [ ("width", Json.Num t.an_width); ("slope", Json.Num t.an_slope) ]);
      ( "gates",
        Json.Arr
          (Array.to_list
             (Array.map
                (fun (g : Netlist.gate) ->
                  Json.Obj
                    [
                      ("gate", Json.Str g.Netlist.gate_name);
                      ( "attenuation_bound",
                        match t.an_atten.(g.Netlist.gate_id) with
                        | None -> Json.Null
                        | Some d -> Json.Num d );
                      ("blocked", Json.Bool t.an_blocked.(g.Netlist.gate_id));
                    ])
                (Netlist.gates c))) );
      ( "outputs",
        Json.Arr
          (List.map
             (fun (po, w) ->
               Json.Obj
                 [
                   ("output", Json.Str (Netlist.signal_name c po));
                   ("weakest_surviving_width", num_or_null w);
                 ])
             (weakest_surviving t)) );
      ( "sites",
        Json.Arr
          (List.map
             (fun sid ->
               Json.Obj
                 [
                   ("signal", Json.Str (Netlist.signal_name c sid));
                   ("rise", num_or_null (surviving_width t sid ~rising:true));
                   ("fall", num_or_null (surviving_width t sid ~rising:false));
                 ])
             t.an_candidates) );
      ("degenerate", Json.Bool (all_sites_filtered t));
    ]

let pp_text fmt t =
  let c = t.an_cx.cx_c in
  Format.fprintf fmt "survival map of %s (%s, pulse %g/%g ps)@." (Netlist.name c)
    (Delay_model.kind_to_string t.an_cx.cx_kind)
    t.an_width t.an_slope;
  Format.fprintf fmt "per-gate attenuation bound (surviving width change, ps):@.";
  Array.iter
    (fun (g : Netlist.gate) ->
      match t.an_atten.(g.Netlist.gate_id) with
      | None -> Format.fprintf fmt "  %-16s filters the pulse@." g.Netlist.gate_name
      | Some d ->
          Format.fprintf fmt "  %-16s %+.2f%s@." g.Netlist.gate_name d
            (if t.an_blocked.(g.Netlist.gate_id) then " (constant output: blocked)" else ""))
    (Netlist.gates c);
  Format.fprintf fmt "weakest surviving width per output:@.";
  List.iter
    (fun (po, w) ->
      if Float.is_finite w then
        Format.fprintf fmt "  %-16s %.2f ps@." (Netlist.signal_name c po) w
      else Format.fprintf fmt "  %-16s unreachable@." (Netlist.signal_name c po))
    (weakest_surviving t);
  if all_sites_filtered t then
    Format.fprintf fmt "every candidate site is filtered: the site list is degenerate@."
