module Tech = Halotis_tech.Tech
module Gate_kind = Halotis_logic.Gate_kind
module N = Halotis_netlist.Netlist

(* One finding per (kind, edge, rule): the first violating operating
   point is the witness; listing every grid point would flood the
   report without adding information. *)
let check_kind config tech kind =
  let gt = Tech.gate_tech tech kind in
  let vdd = Tech.vdd tech in
  let loc = Finding.Kind (Gate_kind.name kind) in
  let findings = ref [] in
  let push = function Some f -> findings := f :: !findings | None -> () in
  let first_violation values predicate = List.find_opt predicate values in
  List.iter
    (fun rising ->
      let p = Tech.edge gt ~rising in
      (match first_violation config.Rule.loads (fun cl -> Tech.raw_output_slope p ~cl <= 0.)
       with
      | Some cl ->
          push
            (Rule.emit config Rule.tk001 loc
               "%s tau_out = %.2f ps at CL = %g fF; output ramps must take positive time"
               (Finding.edge_name rising)
               (Tech.raw_output_slope p ~cl)
               cl)
      | None -> ());
      (match
         first_violation config.Rule.loads (fun cl ->
             Tech.raw_degradation_tau tech p ~cl <= 0.)
       with
      | Some cl ->
          push
            (Rule.emit config Rule.tk002 loc
               "%s degradation tau = %.2f ps at CL = %g fF; eq. 1 needs tau > 0"
               (Finding.edge_name rising)
               (Tech.raw_degradation_tau tech p ~cl)
               cl)
      | None -> ());
      (match
         first_violation config.Rule.slopes (fun tau_in ->
             Tech.raw_degradation_t0 tech p ~tau_in < 0.)
       with
      | Some tau_in ->
          push
            (Rule.emit config Rule.tk003 loc
               "%s T0 = %.2f ps at tau_in = %g ps (ddm_c = %.2f V > VDD/2 = %.2f V)"
               (Finding.edge_name rising)
               (Tech.raw_degradation_t0 tech p ~tau_in)
               tau_in p.Tech.ddm_c (vdd /. 2.))
      | None -> ());
      let pins = List.init (Gate_kind.arity kind) Fun.id in
      let operating_points =
        List.concat_map
          (fun cl ->
            List.concat_map
              (fun tau_in -> List.map (fun pin -> (cl, tau_in, pin)) pins)
              config.Rule.slopes)
          config.Rule.loads
      in
      match
        first_violation operating_points (fun (cl, tau_in, pin) ->
            Tech.base_delay p ~pin_factor:(gt.Tech.pin_factor pin) ~cl ~tau_in <= 0.)
      with
      | Some (cl, tau_in, pin) ->
          push
            (Rule.emit config Rule.tk005 loc
               "%s tp0 = %.2f ps at CL = %g fF, tau_in = %g ps, pin %d"
               (Finding.edge_name rising)
               (Tech.base_delay p ~pin_factor:(gt.Tech.pin_factor pin) ~cl ~tau_in)
               cl tau_in pin)
      | None -> ())
    [ true; false ];
  (* TK004 on the kind's default threshold. *)
  if gt.Tech.default_vt <= 0. || gt.Tech.default_vt >= vdd then
    push
      (Rule.emit config Rule.tk004 loc "default VT = %.2f V outside (0, %.2f V)"
         gt.Tech.default_vt vdd);
  (* TK006 at a mid-grid operating point, only when both delays are
     positive (TK005 already covers the degenerate sign cases). *)
  let mid values =
    match values with
    | [] -> 1.
    | _ -> List.nth values (List.length values / 2)
  in
  let cl = mid config.Rule.loads and tau_in = mid config.Rule.slopes in
  let delay ~rising =
    Tech.base_delay (Tech.edge gt ~rising) ~pin_factor:1.0 ~cl ~tau_in
  in
  let rise = delay ~rising:true and fall = delay ~rising:false in
  if rise > 0. && fall > 0. then begin
    let ratio = Float.max (rise /. fall) (fall /. rise) in
    if ratio > config.Rule.asymmetry_bound then
      push
        (Rule.emit config Rule.tk006 loc
           "rise %.2f ps vs fall %.2f ps at CL = %g fF (ratio %.1fx > %.1fx)" rise fall
           cl ratio config.Rule.asymmetry_bound)
  end;
  List.rev !findings

let run_kinds config tech kinds =
  let seen = Hashtbl.create 8 in
  List.concat_map
    (fun kind ->
      if Hashtbl.mem seen kind then []
      else begin
        Hashtbl.add seen kind ();
        check_kind config tech kind
      end)
    kinds

let run config tech c =
  let kinds =
    Array.to_list (Array.map (fun (g : N.gate) -> g.N.kind) (N.gates c))
  in
  let kind_findings = run_kinds config tech kinds in
  (* TK004 on per-pin overrides recorded in the netlist. *)
  let vdd = Tech.vdd tech in
  let override_findings =
    Array.to_list (N.gates c)
    |> List.concat_map (fun (g : N.gate) ->
           Array.to_list g.N.input_vt
           |> List.mapi (fun pin vt -> (pin, vt))
           |> List.filter_map (fun (pin, vt) ->
                  match vt with
                  | Some v when v <= 0. || v >= vdd ->
                      Rule.emit config Rule.tk004
                        (Finding.Pin (g.N.gate_name, pin))
                        "pin VT override = %.2f V outside (0, %.2f V); the input can \
                         never cross its threshold"
                        v vdd
                  | Some _ | None -> None))
  in
  kind_findings @ override_findings
