(* Structure-of-arrays min-heap: keys live in a flat float array, so the
   sift loops read unboxed floats from contiguous memory.  [ids.(i)]
   is the caller's [~rank], which breaks key ties.  Payloads are plain ints (engines store pool-slot
   indices), so sifting moves immediates with no write barrier and
   allocates nothing.

   The tree is 4-ary: half the depth of a binary heap, and the four
   children of a node occupy one cache line of the keys array, so a
   sift-down level costs a single line fetch.  Heap shape does not
   affect the order of entries that differ in (key, id): every correct
   heap pops them in the same sequence. *)
type t = {
  mutable keys : float array;
  mutable ids : int array;
  mutable vals : int array; (* only the first [size] slots are live *)
  mutable size : int;
}

let create ?(capacity = 0) () =
  {
    keys = Array.make capacity 0.;
    ids = Array.make capacity 0;
    vals = Array.make capacity 0;
    size = 0;
  }

let length h = h.size
let is_empty h = h.size = 0

(* (key, id) of slot [i] precedes (k, id). *)
let slot_lt h i k id =
  let ki = h.keys.(i) in
  ki < k || (ki = k && h.ids.(i) < id)

(* Hole-based sifts: the displaced entry is held in registers and
   written exactly once, halving the stores of swap-based sifting. *)
let sift_up h start k id v =
  let i = ref start in
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 4 in
    if slot_lt h parent k id then continue := false
    else begin
      h.keys.(!i) <- h.keys.(parent);
      h.ids.(!i) <- h.ids.(parent);
      h.vals.(!i) <- h.vals.(parent);
      i := parent
    end
  done;
  h.keys.(!i) <- k;
  h.ids.(!i) <- id;
  h.vals.(!i) <- v

(* Sift the entry parked in slot [h.size] (just past the live prefix)
   down from the root.  Reading it from its own slot, rather than
   taking it as arguments, keeps its key an unboxed local: a float
   passed to a function that is not inlined is boxed.  The best child's
   key and rank stay in locals too, and the child range is bounded with
   integer tests, not the polymorphic [min]. *)
let sift_down h =
  let keys = h.keys and ids = h.ids and vals = h.vals in
  let n = h.size in
  let k = keys.(n) and id = ids.(n) and v = vals.(n) in
  let i = ref 0 in
  let continue = ref true in
  while !continue do
    let first = (4 * !i) + 1 in
    if first >= n then continue := false
    else begin
      let last = if first + 3 < n then first + 3 else n - 1 in
      let best = ref first in
      let bk = ref keys.(first) and bid = ref ids.(first) in
      for c = first + 1 to last do
        let kc = keys.(c) in
        if kc < !bk || (kc = !bk && ids.(c) < !bid) then begin
          best := c;
          bk := kc;
          bid := ids.(c)
        end
      done;
      if !bk < k || (!bk = k && !bid < id) then begin
        keys.(!i) <- !bk;
        ids.(!i) <- !bid;
        vals.(!i) <- vals.(!best);
        i := !best
      end
      else continue := false
    end
  done;
  keys.(!i) <- k;
  ids.(!i) <- id;
  vals.(!i) <- v

let grow h =
  let capacity = Array.length h.keys in
  if h.size = capacity then begin
    let cap = max 8 (2 * capacity) in
    let keys = Array.make cap 0. and ids = Array.make cap 0 and vals = Array.make cap 0 in
    Array.blit h.keys 0 keys 0 h.size;
    Array.blit h.ids 0 ids 0 h.size;
    Array.blit h.vals 0 vals 0 h.size;
    h.keys <- keys;
    h.ids <- ids;
    h.vals <- vals
  end

let insert h ~key ~rank v =
  grow h;
  h.size <- h.size + 1;
  sift_up h (h.size - 1) key rank v

let min_key h = if h.size = 0 then invalid_arg "Heap.min_key: empty" else h.keys.(0)

let pop h =
  if h.size = 0 then invalid_arg "Heap.pop: empty";
  let v = h.vals.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then sift_down h;
  v

let pop_min h =
  if h.size = 0 then None
  else begin
    (* read the key before [pop] restructures the root *)
    let k = h.keys.(0) in
    Some (k, pop h)
  end

let to_sorted_list h =
  let entries = Array.init h.size (fun i -> (h.keys.(i), h.ids.(i), h.vals.(i))) in
  Array.sort
    (fun (ka, ia, _) (kb, ib, _) ->
      match Float.compare ka kb with 0 -> Int.compare ia ib | c -> c)
    entries;
  Array.fold_right (fun (k, _, v) acc -> (k, v) :: acc) entries []
