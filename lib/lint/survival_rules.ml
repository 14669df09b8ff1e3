module Tech = Halotis_tech.Tech
module Gate_kind = Halotis_logic.Gate_kind
module N = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check
module Survival = Halotis_sta.Survival

(* TK007: the eq. 3 dead window T0 = (1/2 - ddm_c/VDD) * tau_in covers
   the stage's own nominal delay at some representative operating
   point.  Then an edge arriving up to tp0 after the previous output
   transition has its delay collapsed to (near) zero, while the
   trailing edge of a wide pulse — measured from the leading output
   edge, i.e. a pulse width later — escapes the window and keeps its
   full delay: a pulse can widen by up to tp0 per stage, so the DDM
   coefficients admit amplification along a chain of such gates.  The
   symmetric CDM crossing terms cancel over an inverting pair, so the
   window-vs-delay comparison is the whole criterion. *)
let check_kind config tech kind =
  let gt = Tech.gate_tech tech kind in
  let loc = Finding.Kind (Gate_kind.name kind) in
  let points =
    List.concat_map
      (fun cl -> List.map (fun tau_in -> (cl, tau_in)) config.Rule.slopes)
      config.Rule.loads
  in
  List.filter_map
    (fun rising ->
      let p = Tech.edge gt ~rising in
      let violation (cl, tau_in) =
        let t0 = Tech.degradation_t0 tech p ~tau_in in
        let tp0 = Tech.base_delay p ~pin_factor:1.0 ~cl ~tau_in in
        tp0 > 0. && t0 >= tp0
      in
      match List.find_opt violation points with
      | Some (cl, tau_in) ->
          Rule.emit config Rule.tk007 loc
            "%s T0 = %.2f ps >= tp0 = %.2f ps at CL = %g fF, tau_in = %g ps: \
             a pulse can widen by up to tp0 per stage"
            (Finding.edge_name rising)
            (Tech.degradation_t0 tech p ~tau_in)
            (Tech.base_delay p ~pin_factor:1.0 ~cl ~tau_in)
            cl tau_in
      | None -> None)
    [ true; false ]

let run config tech c =
  let kinds =
    let seen = Hashtbl.create 8 in
    Array.to_list (N.gates c)
    |> List.filter_map (fun (g : N.gate) ->
           if Hashtbl.mem seen g.N.kind then None
           else begin
             Hashtbl.add seen g.N.kind ();
             Some g.N.kind
           end)
  in
  let tk007_findings = List.concat_map (check_kind config tech) kinds in
  (* NL020 needs the full survival analysis, which requires an acyclic
     circuit; on a cyclic one NL003 already fires, so stay silent
     instead of tripping over Survival.analyze's diagnostic. *)
  let nl020_findings =
    match Check.topological_gates c with
    | None -> []
    | Some _ ->
        let an = Survival.analyze tech c in
        if Survival.all_sites_filtered an then
          Option.to_list
            (Rule.emit config Rule.nl020 Finding.Circuit
               "the %.0f ps / %.0f ps canonical SET survives to no primary \
                output from any of the %d candidate sites: every fault \
                campaign on this circuit is degenerate"
               (Survival.width an) (Survival.slope an)
               (List.length (Survival.candidates an)))
        else []
  in
  nl020_findings @ tk007_findings
