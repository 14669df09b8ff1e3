type t = { mutable buf : int array; mutable head : int; mutable tail : int }

let create () = { buf = [||]; head = 0; tail = 0 }

let push q slot =
  let cap = Array.length q.buf in
  if q.tail = cap then begin
    let live = q.tail - q.head in
    if q.head > 0 && 2 * live <= cap then
      (* plenty of consumed slots at the front: slide instead of grow *)
      Array.blit q.buf q.head q.buf 0 live
    else begin
      let buf = Array.make (max 4 (2 * cap)) (-1) in
      Array.blit q.buf q.head buf 0 live;
      q.buf <- buf
    end;
    q.head <- 0;
    q.tail <- live
  end;
  q.buf.(q.tail) <- slot;
  q.tail <- q.tail + 1
