module Tech = Halotis_tech.Tech
module Gate_kind = Halotis_logic.Gate_kind
module Linfit = Halotis_util.Linfit

type quality = { delay_rmse : float; slope_rmse : float }

let rmse residuals =
  match residuals with
  | [] -> 0.
  | _ ->
      let n = float_of_int (List.length residuals) in
      sqrt (List.fold_left (fun acc r -> acc +. (r *. r)) 0. residuals /. n)

let fit_edge ~delay ~transition ~base =
  let delay_rows =
    List.map (fun (slope, load, v) -> ([| slope; load |], v)) (Table2d.sample_points delay)
  in
  let slope_rows =
    List.map (fun (_, load, v) -> ([| load |], v)) (Table2d.sample_points transition)
  in
  match (Linfit.multiple_regression delay_rows, Linfit.multiple_regression slope_rows) with
  | Some [| d0; d_slope; d_load |], Some [| s0; s_load |] ->
      let params =
        {
          base with
          Tech.d0;
          d_slope;
          d_load;
          s0;
          s_load;
        }
      in
      let delay_res =
        List.map
          (fun (xs, y) -> y -. (d0 +. (d_slope *. xs.(0)) +. (d_load *. xs.(1))))
          delay_rows
      in
      let slope_res = List.map (fun (xs, y) -> y -. (s0 +. (s_load *. xs.(0)))) slope_rows in
      Some (params, { delay_rmse = rmse delay_res; slope_rmse = rmse slope_res })
  | _, _ -> None

let default_kind_of_cell = Gate_kind.of_name

let to_tech ~base ~kind_of_cell (lib : Liberty.t) =
  let fitted = Hashtbl.create 8 in
  let qualities = ref [] in
  List.iter
    (fun (cell : Liberty.cell) ->
      match kind_of_cell cell.Liberty.cell_name with
      | None -> ()
      | Some kind -> (
          match cell.Liberty.arcs with
          | [] -> ()
          | arc :: _ -> (
              let base_gt = Tech.gate_tech base kind in
              let edge ~rising =
                let delay =
                  if rising then arc.Liberty.cell_rise else arc.Liberty.cell_fall
                in
                let transition =
                  if rising then arc.Liberty.rise_transition else arc.Liberty.fall_transition
                in
                match (delay, transition) with
                | Some d, Some t ->
                    fit_edge ~delay:d ~transition:t ~base:(Tech.edge base_gt ~rising)
                | _, _ -> None
              in
              match (edge ~rising:true, edge ~rising:false) with
              | Some (rise, qr), Some (fall, qf) ->
                  let input_cap =
                    match cell.Liberty.input_caps with
                    | (_, cap) :: _ when cap > 0. -> cap
                    | _ -> base_gt.Tech.input_cap
                  in
                  Hashtbl.replace fitted kind
                    { base_gt with Tech.rise; fall; input_cap };
                  qualities :=
                    ( kind,
                      {
                        delay_rmse = Float.max qr.delay_rmse qf.delay_rmse;
                        slope_rmse = Float.max qr.slope_rmse qf.slope_rmse;
                      } )
                    :: !qualities
              | _, _ -> ())))
    lib.Liberty.cells;
  let lookup kind =
    match Hashtbl.find_opt fitted kind with
    | Some gt -> gt
    | None -> Tech.gate_tech base kind
  in
  let tech_name = lib.Liberty.lib_name ^ "-fitted"
  in
  ( Tech.create ~name:tech_name ~vdd:(Tech.vdd base)
      ~wire_cap_per_fanout:(Tech.wire_cap_per_fanout base) ~lookup (),
    List.rev !qualities )
