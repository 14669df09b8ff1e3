type step = { sw_hours : float; sw_failed : bool }
type t = { sw_steps : step list; sw_ttf : float option }

let h0 = 100.
let factor = 2.
let refine = 4

let run ?(max_steps = 16) ~probe () =
  if max_steps <= 0 then invalid_arg "Sweep.run: max_steps must be positive";
  let steps = ref [] in
  let probe ~stress_hours =
    let failed = probe ~stress_hours in
    steps := { sw_hours = stress_hours; sw_failed = failed } :: !steps;
    failed
  in
  (* climb the geometric ladder until the first failure *)
  let rec climb k lo =
    if k >= max_steps then None
    else
      let h = h0 *. (factor ** float_of_int k) in
      if probe ~stress_hours:h then Some (lo, h) else climb (k + 1) h
  in
  let ttf =
    match climb 0 0. with
    | None -> None
    | Some (lo, hi) ->
        (* bisect the bracket: lo survives (or is 0), hi fails *)
        let rec bisect n lo hi =
          if n = 0 then hi
          else
            let mid = (lo +. hi) /. 2. in
            if probe ~stress_hours:mid then bisect (n - 1) lo mid
            else bisect (n - 1) mid hi
        in
        Some (bisect refine lo hi)
  in
  { sw_steps = List.rev !steps; sw_ttf = ttf }

let aging_probe cfg tech c ~drives site ~stress_hours =
  let overlay = Aging.overlay ~stress_hours ~gates:(Halotis_netlist.Netlist.gate_count c) in
  let module Campaign = Halotis_fault.Campaign in
  match
    (Campaign.run { cfg with Campaign.overlay; sites = Some [ site ] } tech c ~drives)
      .Campaign.cam_verdicts
  with
  | [ v ] -> v.Campaign.vd_outcome = Campaign.Propagated
  | _ -> false
