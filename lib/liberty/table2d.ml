type t = { index1 : float array; index2 : float array; values : float array array }

let strictly_increasing a =
  let ok = ref (Array.length a > 0) in
  for i = 0 to Array.length a - 2 do
    if a.(i) >= a.(i + 1) then ok := false
  done;
  !ok

let make ~index1 ~index2 ~values =
  if not (strictly_increasing index1) then
    invalid_arg "Table2d.make: index_1 must be non-empty and strictly increasing";
  if not (strictly_increasing index2) then
    invalid_arg "Table2d.make: index_2 must be non-empty and strictly increasing";
  if Array.length values <> Array.length index1 then
    invalid_arg "Table2d.make: row count must match index_1";
  Array.iter
    (fun row ->
      if Array.length row <> Array.length index2 then
        invalid_arg "Table2d.make: column count must match index_2")
    values;
  { index1; index2; values }

(* Index of the cell [i, i+1] whose span covers x; clamped to the
   border cells so callers extrapolate linearly outside the grid. *)
let cell index x =
  let n = Array.length index in
  if n = 1 then 0
  else begin
    let rec search lo hi =
      (* invariant: index.(lo) <= x < index.(hi), cells exist *)
      if hi - lo <= 1 then lo
      else begin
        let mid = (lo + hi) / 2 in
        if index.(mid) <= x then search mid hi else search lo mid
      end
    in
    if x < index.(0) then 0
    else if x >= index.(n - 1) then n - 2
    else search 0 (n - 1)
  end

let fraction index i x =
  if Array.length index = 1 then 0.
  else (x -. index.(i)) /. (index.(i + 1) -. index.(i))

let lookup t x1 x2 =
  let i = cell t.index1 x1 and j = cell t.index2 x2 in
  let fi = fraction t.index1 i x1 and fj = fraction t.index2 j x2 in
  let get r c =
    let r = min r (Array.length t.index1 - 1) and c = min c (Array.length t.index2 - 1) in
    t.values.(r).(c)
  in
  let v00 = get i j and v01 = get i (j + 1) and v10 = get (i + 1) j in
  let v11 = get (i + 1) (j + 1) in
  ((1. -. fi) *. (((1. -. fj) *. v00) +. (fj *. v01)))
  +. (fi *. (((1. -. fj) *. v10) +. (fj *. v11)))

let values t = t.values

let monotone ~tolerance t =
  let ok = ref true in
  Array.iter
    (fun row ->
      for j = 0 to Array.length row - 2 do
        if row.(j + 1) < row.(j) -. tolerance then ok := false
      done)
    t.values;
  !ok

let sample_points t =
  List.concat
    (Array.to_list
       (Array.mapi
          (fun i x1 ->
            Array.to_list (Array.mapi (fun j x2 -> (x1, x2, t.values.(i).(j))) t.index2))
          t.index1))
