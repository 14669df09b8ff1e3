(* CONE — incremental fanout-cone re-simulation for fault campaigns
   (extension).

   `halotis faults` default-on fast path: instead of re-simulating the
   whole circuit per injection site, re-run only the victim's static
   fanout cone twice (clean and struck) and graft the difference onto
   the shared baseline.  The contract under test: reports byte-
   identical to full re-simulation (soundness — also pinned by QCheck
   in test/test_fault.ml), with sites/s improving by at least the
   circuit-to-cone size ratio allows.  Two circuits, each campaigned
   on the DDM and on the classic engine:

   - the paper's 4x4 multiplier (dense reconvergent fanout, so cones
     are a large fraction of the circuit — the conservative case);
   - a 5000-gate random circuit (cones are a sliver of the whole, the
     regime the optimization targets; acceptance floor 2x).

   Fallback sites (replay hazards, driverless victims) are re-run in
   full inside the same campaign, so their cost — and the recorded
   fallback rate, broken down by reason — is part of the
   measurement.  Both engines break queue ties by intrinsic rank and
   the sites strike gate-driven signals, so no site of these campaigns
   should fall back: a campaign with any fallback fails its
   observation. *)

open Common
module Campaign = Halotis_fault.Campaign
module Fault_report = Halotis_fault.Fault_report
module SimF = Halotis_engine.Sim

(* Site counts per campaign, smallest first.  Overridable so CI can run
   a quick smoke (e.g. [HALOTIS_CONE_SITES=40]) through the same code
   path as the full measurement. *)
let sites ~default =
  match Sys.getenv_opt "HALOTIS_CONE_SITES" with
  | None | Some "" -> default
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | Some _ | None ->
          invalid_arg
            (Printf.sprintf "HALOTIS_CONE_SITES: bad count %S (want a positive int)" s))

(* A large random circuit with staggered per-input stimulus: every
   input toggles at its own jittered instants, the activity pattern a
   testbench replaying unsynchronized vectors produces. *)
let scale_workload ~gates ~seed =
  let c = G.random_combinational ~gates ~inputs:16 ~seed () in
  let rng = Halotis_util.Prng.create ~seed:(seed * 13) in
  let drives =
    List.map
      (fun s ->
        let changes =
          List.init 8 (fun k ->
              ( (2500. *. float_of_int (k + 1))
                +. Halotis_util.Prng.float rng ~bound:400.,
                Halotis_util.Prng.bool rng ))
        in
        (s, Drive.of_levels ~slope:input_slope ~initial:(Halotis_util.Prng.bool rng) changes))
      (N.primary_inputs c)
  in
  (c, drives)

let campaign ~engine ~incremental ~n ~t_stop c drives =
  (* earlier experiments leave a large major heap behind; compact so
     the measurement reflects the engine, not inherited GC debt *)
  Gc.compact ();
  let cfg = Campaign.config ~engine ~seed:42 ~n ~incremental ~t_stop () in
  let t0 = Unix.gettimeofday () in
  let t = Campaign.run cfg DL.tech c ~drives in
  (t, Unix.gettimeofday () -. t0)

type row = {
  label : string;
  n : int;
  on_wall : float;
  off_wall : float;
  identical : bool;
  exact : int;
  fallback : int;
  reasons : (string * int) list;
  ev_site_cone : float;  (** injected-cone events per exact site *)
  ev_site_full : float;  (** baseline events ~ a full re-simulation's work *)
}

let measure ~engine ~label ~n ~t_stop c drives =
  let t_on, on_wall = campaign ~engine ~incremental:true ~n ~t_stop c drives in
  let t_off, off_wall = campaign ~engine ~incremental:false ~n ~t_stop c drives in
  let identical = Fault_report.to_string t_on = Fault_report.to_string t_off in
  let exact, fallback, reasons, cone_events =
    match t_on.Campaign.cam_cone with
    | Some tot ->
        ( tot.SimF.Cone.ct_exact,
          tot.SimF.Cone.ct_fallback,
          tot.SimF.Cone.ct_fallback_reasons,
          tot.SimF.Cone.ct_cone_events )
    | None -> (0, n, [ ("no cone context", n) ], 0)
  in
  {
    label =
      (match engine with
      | Campaign.Classic_inertial -> label ^ "_classic"
      | Campaign.Ddm | Campaign.Cdm -> label);
    n;
    on_wall;
    off_wall;
    identical;
    exact;
    fallback;
    reasons;
    ev_site_cone = (if exact = 0 then Float.nan else float_of_int cone_events /. float_of_int exact);
    ev_site_full =
      float_of_int t_on.Campaign.cam_baseline_stats.Stats.events_processed;
  }

let run () =
  section "CONE -- incremental cone re-simulation for fault campaigns (extension)";
  let m = Lazy.force multiplier in
  let mult_sites = 1000 in
  let mult engine =
    measure ~engine ~label:"mult4x4"
      ~n:(sites ~default:mult_sites)
      ~t_stop:horizon m.G.mult_circuit
      (mult_drives [ { V.op_a = 3; op_b = 5 }; { V.op_a = 12; op_b = 13 } ])
  in
  let gates = 5000 in
  let c5k, d5k = scale_workload ~gates ~seed:(gates + 1) in
  let scale engine =
    measure ~engine ~label:"rand5000" ~n:(sites ~default:150) ~t_stop:25_000. c5k d5k
  in
  let mult_ddm = mult Campaign.Ddm and mult_classic = mult Campaign.Classic_inertial in
  let scale_ddm = scale Campaign.Ddm and scale_classic = scale Campaign.Classic_inertial in
  let rows = [ mult_ddm; mult_classic; scale_ddm; scale_classic ] in
  Table.print
    (Table.make
       ~header:
         [ "circuit"; "sites"; "full (s)"; "incr (s)"; "speedup"; "exact"; "fallback" ]
       ~rows:
         (List.map
            (fun r ->
              [
                r.label;
                string_of_int r.n;
                Printf.sprintf "%.3f" r.off_wall;
                Printf.sprintf "%.3f" r.on_wall;
                Printf.sprintf "%.2fx" (r.off_wall /. r.on_wall);
                string_of_int r.exact;
                string_of_int r.fallback;
              ])
            rows));
  List.iter
    (fun r ->
      Printf.printf "  %-18s events/site: cone %.0f vs full ~%.0f; report %s\n" r.label
        r.ev_site_cone r.ev_site_full
        (if r.identical then "identical" else "MISMATCH");
      List.iter (fun (reason, k) -> Printf.printf "    fallback %4d  %s\n" k reason) r.reasons)
    rows;
  let speedup r = r.off_wall /. r.on_wall in
  let fallback_rate r = float_of_int r.fallback /. float_of_int r.n in
  let data =
    List.concat_map
      (fun r ->
        [
          (Printf.sprintf "cone_%s_full_wall_s" r.label, r.off_wall);
          (Printf.sprintf "cone_%s_incr_wall_s" r.label, r.on_wall);
          (Printf.sprintf "cone_%s_speedup" r.label, speedup r);
          (Printf.sprintf "cone_%s_sites_per_s" r.label, float_of_int r.n /. r.on_wall);
          (Printf.sprintf "cone_%s_fallback_rate" r.label, fallback_rate r);
          (Printf.sprintf "cone_%s_events_per_site" r.label, r.ev_site_cone);
        ])
      rows
  in
  let reasons r =
    match r.reasons with
    | [] -> "none"
    | l -> String.concat ", " (List.map (fun (reason, k) -> Printf.sprintf "%d %s" k reason) l)
  in
  [
    Experiment.make ~data ~exp_id:"CONE"
      ~title:"Incremental cone re-simulation for fault campaigns (extension)"
      ([
         Experiment.observation
           ~agrees:(List.for_all (fun r -> r.identical) rows)
           ~metric:"campaign reports: incremental vs full re-simulation"
           ~paper:"(soundness: the graft must be exact, else fall back)"
           ~measured:
             (if List.for_all (fun r -> r.identical) rows then
                "byte-identical on all four campaigns"
              else "MISMATCH")
           ();
       ]
      @ List.map
          (fun r ->
            Experiment.observation
              ~agrees:(speedup r >= 2.)
              ~metric:
                (Printf.sprintf "sites/s on the %d-gate %s campaign (acceptance floor 2x)"
                   gates r.label)
              ~paper:"(cone work ~ cone size, not circuit size)"
              ~measured:
                (Printf.sprintf "%.1fx (%.1f -> %.1f sites/s, %.0f%% fallback)" (speedup r)
                   (float_of_int r.n /. r.off_wall)
                   (float_of_int r.n /. r.on_wall)
                   (100. *. fallback_rate r))
              ())
          [ scale_ddm; scale_classic ]
      @ [
          Experiment.observation
            ~metric:"events per site, injected cone vs full re-simulation"
            ~paper:"(the saved work, independent of host load)"
            ~measured:
              (String.concat "; "
                 (List.map
                    (fun r -> Printf.sprintf "%s %.0f vs %.0f" r.label r.ev_site_cone r.ev_site_full)
                    rows))
            ~note:
              (Printf.sprintf
                 "mult4x4 speedup %.1fx DDM / %.1fx classic: reconvergent multiplier cones \
                  span much of the circuit, so the bound is modest by construction"
                 (speedup mult_ddm) (speedup mult_classic))
            ();
        ]
      @ [
          (* The target classic cones from checkpoints were set: 4x on
             the multiplier's full campaign.  A smaller smoke run does
             not amortize the baseline replays, so it gets no verdict. *)
          (let target = 4. and r = mult_classic in
           Experiment.observation
             ?agrees:(if r.n < mult_sites then None else Some (speedup r >= target))
             ~metric:"mult4x4_classic sites/s, incremental vs full (target 4x)"
             ~paper:"(classic cone runs start from baseline checkpoints)"
             ~measured:
               (Printf.sprintf "%.1fx at %.0f events/site (full run %.0f)" (speedup r)
                  r.ev_site_cone r.ev_site_full)
             ~note:
               (if speedup r >= target then ""
                else
                  "short of 4x: reconvergent multiplier cones span most of the circuit, so \
                   a site's cost is no longer its few events but the cone run's fixed \
                   set-up (restoring the members and boundary feeds, then the graft), a \
                   large share of a full run of only ~60 events")
             ());
        ]
      @ List.map
          (fun r ->
            Experiment.observation
              ~agrees:(r.reasons = [])
              ~metric:(Printf.sprintf "%s fallback sites by reason" r.label)
              ~paper:"(no fallback: gate-driven victims, ties popped by intrinsic rank)"
              ~measured:
                (Printf.sprintf "%.1f%% of %d: %s" (100. *. fallback_rate r) r.n (reasons r))
              ())
          rows);
  ]
