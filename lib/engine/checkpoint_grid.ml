module Heap = Halotis_util.Heap

type 'a t = { instants : float array; states : 'a array }

(* Checkpoints after the DC state.  A strike lands anywhere on the
   horizon, so they are spread evenly in time over the baseline's
   active span; the last sits just past its last event. *)
let grid_points = 16

let take ?grid ~watchdog (ctl : Run_control.t) ~last ~capture ~advance ~replayed =
  let dc = { instants = [| neg_infinity |]; states = [| capture neg_infinity |] } in
  let queue = ctl.Run_control.queue in
  if watchdog || Heap.is_empty queue then dc
  else begin
    let first = ctl.Run_control.at.(Heap.top queue) in
    let grid =
      match grid with
      | Some g -> g
      | None ->
          List.init grid_points (fun k ->
              if k = grid_points - 1 then Float.succ last
              else first +. ((last -. first) *. float_of_int (k + 1) /. float_of_int grid_points))
    in
    (* an instant at or before the first event would repeat the DC state *)
    let grid = List.sort_uniq Float.compare (List.filter (fun t -> t > first) grid) in
    let later =
      List.map
        (fun t ->
          advance (Float.pred t);
          capture t)
        grid
    in
    if replayed () then
      {
        instants = Array.of_list (neg_infinity :: grid);
        states = Array.of_list (dc.states.(0) :: later);
      }
    else dc
  end

let latest instants at =
  (* the last index whose instant is <= at; index 0 always qualifies *)
  let lo = ref 0 and hi = ref (Array.length instants) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if instants.(mid) <= at then lo := mid else hi := mid
  done;
  !lo
