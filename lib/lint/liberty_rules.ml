module Liberty = Halotis_liberty.Liberty
module Table2d = Halotis_liberty.Table2d
module Fit = Halotis_liberty.Fit
module Gate_kind = Halotis_logic.Gate_kind

let table_slots (arc : Liberty.arc) =
  [
    ("cell_rise", arc.Liberty.cell_rise);
    ("cell_fall", arc.Liberty.cell_fall);
    ("rise_transition", arc.Liberty.rise_transition);
    ("fall_transition", arc.Liberty.fall_transition);
  ]

let run config ~base lib =
  let findings = ref [] in
  let push = function Some f -> findings := f :: !findings | None -> () in
  List.iter
    (fun (cell : Liberty.cell) ->
      let loc = Finding.Cell cell.Liberty.cell_name in
      (* LB001 — arcless cells, and arcs with holes in their tables. *)
      if cell.Liberty.arcs = [] then
        push
          (Rule.emit config Rule.lb001 loc
             "output pin %s carries no timing arcs; the cell cannot be characterised"
             cell.Liberty.output_pin)
      else
        List.iter
          (fun (arc : Liberty.arc) ->
            let missing =
              List.filter_map
                (fun (name, slot) -> if slot = None then Some name else None)
                (table_slots arc)
            in
            if missing <> [] then
              push
                (Rule.emit config Rule.lb001 loc "arc from %s is missing %s"
                   arc.Liberty.related_pin
                   (String.concat ", " missing)))
          cell.Liberty.arcs;
      (* LB002 — delay and transition must not shrink as load grows.
         A 1% relative tolerance absorbs rounding in published data. *)
      List.iter
        (fun (arc : Liberty.arc) ->
          List.iter
            (fun (name, slot) ->
              match slot with
              | None -> ()
              | Some table ->
                  let span =
                    Array.fold_left
                      (fun acc row -> Array.fold_left (fun a v -> Float.max a (Float.abs v)) acc row)
                      0. (Table2d.values table)
                  in
                  if not (Table2d.monotone ~tolerance:(0.01 *. span) table) then
                    push
                      (Rule.emit config Rule.lb002 loc
                         "%s (arc from %s) decreases with output load; characterisation \
                          data is suspect"
                         name arc.Liberty.related_pin))
            (table_slots arc))
        cell.Liberty.arcs)
    lib.Liberty.cells;
  (* LB003 — how badly the linear CDM approximates the tables. *)
  (if Rule.enabled config Rule.lb003 then
     let _, qualities =
       Fit.to_tech ~base ~kind_of_cell:Fit.default_kind_of_cell lib
     in
     List.iter
       (fun (kind, (q : Fit.quality)) ->
         let worst = Float.max q.Fit.delay_rmse q.Fit.slope_rmse in
         if worst > config.Rule.rmse_bound then
           push
             (Rule.emit config Rule.lb003
                (Finding.Kind (Gate_kind.name kind))
                "fit RMSE %.1f ps (delay %.1f, slope %.1f) exceeds the %.0f ps bound; \
                 the linear model misrepresents this cell"
                worst q.Fit.delay_rmse q.Fit.slope_rmse config.Rule.rmse_bound))
       qualities);
  List.rev !findings
