(* Array-based binary heap.  Each entry records its current array index
   so handles can remove it in O(log n).  [rank] breaks ties among equal
   keys. *)

type 'a entry = {
  key : float;
  rank : int;
  value : 'a;
  mutable index : int; (* -1 once popped or removed *)
}

type 'a handle = 'a entry

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }
let length h = h.size
let is_empty h = h.size = 0

let entry_lt a b = a.key < b.key || (a.key = b.key && a.rank < b.rank)

let swap h i j =
  let a = h.data.(i) and b = h.data.(j) in
  h.data.(i) <- b;
  h.data.(j) <- a;
  a.index <- j;
  b.index <- i

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt h.data.(i) h.data.(parent) then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = if left < h.size && entry_lt h.data.(left) h.data.(i) then left else i in
  let smallest =
    if right < h.size && entry_lt h.data.(right) h.data.(smallest) then right else smallest
  in
  if smallest <> i then begin
    swap h i smallest;
    sift_down h smallest
  end

let grow h =
  let capacity = Array.length h.data in
  if h.size = capacity then begin
    let dummy = h.data.(0) in
    let data = Array.make (max 8 (2 * capacity)) dummy in
    Array.blit h.data 0 data 0 h.size;
    h.data <- data
  end

let insert h ~key ~rank value =
  let entry = { key; rank; value; index = h.size } in
  if Array.length h.data = 0 then h.data <- Array.make 8 entry else grow h;
  h.data.(h.size) <- entry;
  h.size <- h.size + 1;
  sift_up h (h.size - 1);
  entry

(* Remove the entry currently stored at index [i]. *)
let remove_at h i =
  let entry = h.data.(i) in
  entry.index <- -1;
  h.size <- h.size - 1;
  if i < h.size then begin
    let last = h.data.(h.size) in
    h.data.(i) <- last;
    last.index <- i;
    (* The moved entry may need to travel either way. *)
    sift_up h i;
    sift_down h last.index
  end

let pop_min h =
  if h.size = 0 then None
  else begin
    let entry = h.data.(0) in
    remove_at h 0;
    Some (entry.key, entry.value)
  end

let peek_min h = if h.size = 0 then None else Some (h.data.(0).key, h.data.(0).value)

let mem _h handle = handle.index >= 0

let remove h handle =
  if handle.index < 0 then false
  else begin
    assert (h.data.(handle.index) == handle);
    remove_at h handle.index;
    true
  end

let key_of _h handle = if handle.index >= 0 then Some handle.key else None
