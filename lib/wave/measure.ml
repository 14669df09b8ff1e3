type stats = { count : int; min_ps : float; max_ps : float; mean_ps : float }

let latencies ~cause ~response =
  let matches (c : Digital.edge) (r : Digital.edge) = r.Digital.at >= c.Digital.at in
  List.filter_map
    (fun c ->
      match List.find_opt (matches c) response with
      | Some r -> Some (r.Digital.at -. c.Digital.at)
      | None -> None)
    cause

let stats = function
  | [] -> None
  | ls ->
      let count = List.length ls in
      Some
        {
          count;
          min_ps = List.fold_left Float.min infinity ls;
          max_ps = List.fold_left Float.max neg_infinity ls;
          mean_ps = List.fold_left ( +. ) 0. ls /. float_of_int count;
        }

let pp_stats fmt s =
  Format.fprintf fmt "%d edges, min %a, mean %a, max %a" s.count Halotis_util.Units.pp_time
    s.min_ps Halotis_util.Units.pp_time s.mean_ps Halotis_util.Units.pp_time s.max_ps
