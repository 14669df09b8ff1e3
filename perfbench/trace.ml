(* The traced run's span recorder.

   The benchmark wraps each call it makes into a layer of the library in
   [span "layer.what" f].  With tracing off, [span] is a plain call.
   With tracing on, it records name, start and end on the monotonic
   clock, the enclosing span and the run id.  Spans stay in memory until
   [dump] writes them out at the end of the run.

   Span names are ["layer.detail"]; the layer is the part before the
   first dot.  A [probe.*] span re-does one piece of work on its own to
   time it (pricing, protocol decode/encode, cone set-up); probes are
   reported as their own metrics and belong to no layer.

   Memory stays bounded however long the run: the first [keep] spans are
   kept whole for the dump, the first [keep] durations of each name are
   kept for medians, and self times are summed as spans end. *)

let enabled = ref false
let run_id = ref 0
let keep = 100_000

let clock () = Int64.to_int (Monotonic_clock.now ())

(* every span so far *)
let n = ref 0

(* the first [keep] spans, whole: name, start, stop, parent, run id *)
type kept = { names : string array; ints : int array (* 4 per span *) }

let kept = lazy { names = Array.make keep ""; ints = Array.make (4 * keep) 0 }

(* per name: self nanoseconds, and the first [keep] durations *)
let self_ns : (string, int ref) Hashtbl.t = Hashtbl.create 32
let samples : (string, int array * int ref) Hashtbl.t = Hashtbl.create 32

type frame = { id : int; mutable child_ns : int }

let stack = ref []

let finish name id parent start (fr : frame) =
  let stop = clock () in
  stack := List.tl !stack;
  let d = truncate (float_of_int (stop - start) *. !Calib.speed) in
  (match !stack with p :: _ -> p.child_ns <- p.child_ns + d | [] -> ());
  (match Hashtbl.find_opt self_ns name with
  | Some r -> r := !r + d - fr.child_ns
  | None -> Hashtbl.replace self_ns name (ref (d - fr.child_ns)));
  let a, k =
    match Hashtbl.find_opt samples name with
    | Some s -> s
    | None ->
        let s = (Array.make keep 0, ref 0) in
        Hashtbl.replace samples name s;
        s
  in
  if !k < keep then begin
    a.(!k) <- d;
    incr k
  end;
  if id < keep then begin
    let k = Lazy.force kept in
    k.names.(id) <- name;
    k.ints.(4 * id) <- start;
    k.ints.((4 * id) + 1) <- stop;
    k.ints.((4 * id) + 2) <- parent;
    k.ints.((4 * id) + 3) <- !run_id
  end

let span name f =
  if not !enabled then f ()
  else begin
    let id = !n in
    incr n;
    let parent = match !stack with p :: _ -> p.id | [] -> -1 in
    let fr = { id; child_ns = 0 } in
    stack := fr :: !stack;
    let start = clock () in
    match f () with
    | v ->
        finish name id parent start fr;
        v
    | exception e ->
        finish name id parent start fr;
        raise e
  end

(* Durations (seconds) of the first [keep] spans with exactly this name. *)
let durations name =
  match Hashtbl.find_opt samples name with
  | None -> []
  | Some (a, k) -> List.init !k (fun i -> float_of_int a.(i) *. 1e-9)

let layer_of name =
  match String.index_opt name '.' with Some k -> String.sub name 0 k | None -> name

(* Self time of every span (its duration minus the time its direct
   children cover), summed per layer, in seconds. *)
let self_by_layer () =
  let tbl = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name r ->
      let l = layer_of name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt tbl l) in
      Hashtbl.replace tbl l (prev +. (float_of_int !r *. 1e-9)))
    self_ns;
  tbl

(* One JSON object per kept span and line. *)
let dump path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      let k = Lazy.force kept in
      for i = 0 to min !n keep - 1 do
        let f j = k.ints.((4 * i) + j) in
        Printf.fprintf oc "{\"id\":%d,\"name\":%s,\"start_ns\":%d,\"end_ns\":%d,\"parent\":%d,\"run\":%d}\n"
          i
          (Halotis_util.Json.to_string (Halotis_util.Json.Str k.names.(i)))
          (f 0) (f 1) (f 2) (f 3)
      done)
