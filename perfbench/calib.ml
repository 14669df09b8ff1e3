(* Host-speed reference.

   The shared host this benchmark runs on has periods, a minute or more
   long, in which the same process runs up to twice as fast or as slow as
   in the next.  A period that covers a whole run moves every timing of
   that run alike, and no statistic over the run's own samples can remove
   it.  So the benchmark pairs each measured unit of work (a kernel pass,
   a campaign, a serve epoch, a set-up) with one pass of a fixed piece of
   reference work timed just before it, and scales the unit's time by how
   fast the host ran that pass: a scaled time is the time the work would
   take on a host on which one pass of the reference work takes [ref_s].
   A run reports medians over its many pairs, so neither a single pass's
   luck nor the host's period decides a figure.

   The reference work lives here, not in the program, and never changes:
   a small event-driven simulation over a fixed random graph (a binary
   heap of float-keyed events, fanout lists, toggled levels, one small
   allocation per event), the same kind of work the event kernel does.
   Its cost does not move when the program changes, so a scaled time
   moves only with the program.  Of the graph sizes tried (2^11 to 2^19
   nodes), 2^15 followed the event kernel's swings most closely. *)

let nodes = 1 lsl 15
let fanout = 3
let events = 40_000
let cap = 1 lsl 17

(* seconds one pass is scaled to *)
let ref_s = 0.005

type state = {
  fan : int array;
  delay : float array;
  level : int array;
  keys : float array;
  ids : int array;
  mutable size : int;
}

let state =
  lazy
    (let s = ref 0x2545F49 in
     let next () =
       s := ((!s * 1103515245) + 12345) land 0x3FFF_FFFF;
       !s lsr 4
     in
     let fan = Array.init (nodes * fanout) (fun _ -> next () land (nodes - 1)) in
     let delay = Array.init nodes (fun _ -> 1. +. (float_of_int (next () land 1023) /. 64.)) in
     {
       fan;
       delay;
       level = Array.make nodes 0;
       keys = Array.make cap 0.;
       ids = Array.make cap 0;
       size = 0;
     })

let push st t id =
  if st.size < cap then begin
    let i = ref st.size in
    st.size <- st.size + 1;
    while !i > 0 && st.keys.((!i - 1) / 2) > t do
      let p = (!i - 1) / 2 in
      st.keys.(!i) <- st.keys.(p);
      st.ids.(!i) <- st.ids.(p);
      i := p
    done;
    st.keys.(!i) <- t;
    st.ids.(!i) <- id
  end

(* Removes the earliest event; returns it boxed, the allocation an
   OCaml kernel makes per event. *)
let pop st =
  let t = st.keys.(0) and id = st.ids.(0) in
  st.size <- st.size - 1;
  let n = st.size in
  let lt = st.keys.(n) and lid = st.ids.(n) in
  let i = ref 0 and fin = ref false in
  while not !fin do
    let l = (2 * !i) + 1 in
    if l >= n then fin := true
    else begin
      let c = if l + 1 < n && st.keys.(l + 1) < st.keys.(l) then l + 1 else l in
      if st.keys.(c) < lt then begin
        st.keys.(!i) <- st.keys.(c);
        st.ids.(!i) <- st.ids.(c);
        i := c
      end
      else fin := true
    end
  done;
  st.keys.(!i) <- lt;
  st.ids.(!i) <- lid;
  Sys.opaque_identity (t, id)

(* One pass; its checksum keeps it from being optimised away. *)
let work () =
  let st = Lazy.force state in
  Array.fill st.level 0 nodes 0;
  st.size <- 0;
  for k = 0 to 255 do
    push st (float_of_int k) ((k * 127) land (nodes - 1))
  done;
  let sum = ref 0 and k = ref 0 in
  while !k < events && st.size > 0 do
    let t, id = pop st in
    let v = st.level.(id) lxor 1 in
    st.level.(id) <- v;
    sum := !sum + (v * id);
    if v = 1 then
      for j = 0 to fanout - 1 do
        let g = st.fan.((id * fanout) + j) in
        push st (t +. st.delay.(g)) g
      done;
    incr k
  done;
  !sum + !k

let checksum = lazy (work ())

(* Seconds one pass takes now. *)
let pass () =
  let c = Lazy.force checksum in
  let t0 = Meas.now () in
  let s = work () in
  let dt = Meas.now () -. t0 in
  if s <> c then failwith "reference work: checksum changed";
  dt

(* [ref_s] over the seconds of the latest pass: above 1 while the host
   runs faster than the reference speed. *)
let speed = ref 1.

(* every speed measured so far *)
let speeds = ref []

(* Measures the host now.  Call it just before each measured unit of
   work. *)
let tick () =
  speed := ref_s /. pass ();
  speeds := !speed :: !speeds

(* A duration of the program's work, scaled to the reference speed. *)
let scale dt = dt *. !speed

let time f =
  let x, dt = Meas.time f in
  (x, scale dt)
