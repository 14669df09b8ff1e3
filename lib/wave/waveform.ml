type segment = { transition : Transition.t; v_start : Halotis_util.Units.voltage }

(* Structure-of-arrays segment store: the ramp parameters live in flat
   unboxed float arrays (polarity as one byte each) so the hot append /
   crossing path reads contiguous scalars instead of chasing boxed
   segment and transition records.  [segment] values are materialised
   on demand for the inspection API. *)
type t = {
  vdd : Halotis_util.Units.voltage;
  initial : Halotis_util.Units.voltage;
  mutable starts : float array; (* chronological; live prefix of length len *)
  mutable slopes : float array;
  mutable vstarts : float array; (* waveform value at the ramp start *)
  mutable pols : Bytes.t; (* '\001' = rising *)
  mutable len : int;
}

let create ?(initial = 0.) ~vdd () =
  if vdd <= 0. then invalid_arg "Waveform.create: vdd must be positive";
  { vdd; initial; starts = [||]; slopes = [||]; vstarts = [||]; pols = Bytes.empty; len = 0 }

let vdd w = w.vdd
let initial w = w.initial
let segment_count w = w.len

let rising_at w i = Bytes.get w.pols i = '\001'

(* Segment [i]'s ramp value at [t] and the instant it crosses [vt]:
   the float expressions of [Transition.value_at] and
   [Transition.crossing], read straight from the flat arrays.  They are
   written here, inlined, rather than called in [Transition]: a float
   passed to or returned from a function that is not inlined is boxed,
   and the dev profile compiles every module [-opaque], so nothing is
   inlined across a module boundary. *)
let[@inline] seg_slope w i =
  if rising_at w i then w.vdd /. w.slopes.(i) else -.(w.vdd /. w.slopes.(i))

let[@inline] seg_value w i t =
  let raw = w.vstarts.(i) +. (seg_slope w i *. (t -. w.starts.(i))) in
  if rising_at w i then Float.min raw w.vdd else Float.max raw 0.

let[@inline] seg_crossing w i ~vt =
  let v_start = w.vstarts.(i) in
  let reachable =
    if rising_at w i then v_start < vt && vt <= w.vdd else v_start > vt && vt >= 0.
  in
  if not reachable then Float.nan else w.starts.(i) +. ((vt -. v_start) /. seg_slope w i)

let transition_at w i =
  {
    Transition.start = w.starts.(i);
    slope_time = w.slopes.(i);
    polarity = (if rising_at w i then Transition.Rising else Transition.Falling);
  }

let segment_at w i = { transition = transition_at w i; v_start = w.vstarts.(i) }

let get_segment w i =
  if i < 0 || i >= w.len then invalid_arg "Waveform.get_segment: index out of bounds";
  segment_at w i

let segments w = List.init w.len (segment_at w)
let transitions w = List.init w.len (transition_at w)
let last_segment w = if w.len = 0 then None else Some (segment_at w (w.len - 1))

let last_start w = if w.len = 0 then None else Some w.starts.(w.len - 1)
let last_start_or_nan w = if w.len = 0 then Float.nan else w.starts.(w.len - 1)

(* Index of the last segment with start <= t, or -1. *)
let locate w t =
  let rec search lo hi =
    (* invariant: starts.(lo) <= t (when lo >= 0), starts.(hi) > t (when hi < len) *)
    if hi - lo <= 1 then lo
    else begin
      let mid = (lo + hi) / 2 in
      if w.starts.(mid) <= t then search mid hi else search lo mid
    end
  in
  if w.len = 0 || w.starts.(0) > t then -1 else search 0 w.len

let value_at w t =
  let i = locate w t in
  if i < 0 then w.initial else seg_value w i t

type append_outcome = { dropped : Transition.t list; accepted : bool }
type appended = int (* annulled count lsl 1, lor 1 when accepted *)

let accepted r = r land 1 = 1
let annulled r = r lsr 1

let grow_store w =
  let cap = max 16 (2 * w.len) in
  let grow a = let g = Array.make cap 0. in Array.blit a 0 g 0 w.len; g in
  w.starts <- grow w.starts;
  w.slopes <- grow w.slopes;
  w.vstarts <- grow w.vstarts;
  let pols = Bytes.make cap '\000' in
  Bytes.blit w.pols 0 pols 0 w.len;
  w.pols <- pols

(* The one append: every ramp, record or scalar, is stored here. *)
let append_ramp w ~start ~slope_time ~rising =
  (* [Transition.make]'s checks: the core stores ramps no record went
     through *)
  if not (Float.is_finite start) then invalid_arg "Waveform.append_ramp: start not finite";
  if not (slope_time > 0. && Float.is_finite slope_time) then
    invalid_arg "Waveform.append_ramp: slope_time must be positive";
  (* Annul stored transitions starting at or after the new one. *)
  let len0 = w.len in
  while w.len > 0 && w.starts.(w.len - 1) >= start do
    w.len <- w.len - 1
  done;
  let annulled = len0 - w.len in
  (* Tail fast path: after the annulment loop the last live segment (if
     any) starts strictly before [start], so it governs the value there —
     no need for [value_at]'s binary search over the history. *)
  let v_start = if w.len = 0 then w.initial else seg_value w (w.len - 1) start in
  let at_rail = if rising then v_start >= w.vdd else v_start <= 0. in
  if at_rail then annulled lsl 1
  else begin
    if w.len = Array.length w.starts then grow_store w;
    w.starts.(w.len) <- start;
    w.slopes.(w.len) <- slope_time;
    w.vstarts.(w.len) <- v_start;
    Bytes.set w.pols w.len (if rising then '\001' else '\000');
    w.len <- w.len + 1;
    (annulled lsl 1) lor 1
  end

let append w tr =
  let start = tr.Transition.start in
  (* the segments [append_ramp] is about to annul, oldest first *)
  let rec annulled_from i acc =
    if i >= 0 && w.starts.(i) >= start then annulled_from (i - 1) (transition_at w i :: acc)
    else acc
  in
  let dropped = annulled_from (w.len - 1) [] in
  let rising =
    match tr.Transition.polarity with Transition.Rising -> true | Transition.Falling -> false
  in
  let r = append_ramp w ~start ~slope_time:tr.Transition.slope_time ~rising in
  { dropped; accepted = accepted r }

let assign_prefix w ~src ~len =
  if len < 0 || len > src.len then invalid_arg "Waveform.assign_prefix: length out of bounds";
  if w.initial <> src.initial || w.vdd <> src.vdd then
    invalid_arg "Waveform.assign_prefix: different initial value or rail";
  if len > Array.length w.starts then begin
    (* room to grow as [push] leaves it *)
    let cap = max 16 len in
    w.starts <- Array.make cap 0.;
    w.slopes <- Array.make cap 0.;
    w.vstarts <- Array.make cap 0.;
    w.pols <- Bytes.make cap '\000'
  end;
  Array.blit src.starts 0 w.starts 0 len;
  Array.blit src.slopes 0 w.slopes 0 len;
  Array.blit src.vstarts 0 w.vstarts 0 len;
  Bytes.blit src.pols 0 w.pols 0 len;
  w.len <- len

let common_prefix a b =
  let n = min a.len b.len in
  let i = ref 0 in
  while
    !i < n
    && a.starts.(!i) = b.starts.(!i)
    && a.slopes.(!i) = b.slopes.(!i)
    && a.vstarts.(!i) = b.vstarts.(!i)
    && Bytes.get a.pols !i = Bytes.get b.pols !i
  do
    incr i
  done;
  !i

let equal a b = a.initial = b.initial && a.len = b.len && common_prefix a b = a.len

let transitions_from w i = List.init (max 0 (w.len - i)) (fun k -> transition_at w (i + k))

let last_crossing w ~vt = if w.len = 0 then Float.nan else seg_crossing w (w.len - 1) ~vt

let crossing_of_last w ~vt =
  let c = last_crossing w ~vt in
  if Float.is_nan c then None else Some c

let crossings_with_transitions w ~vt =
  let raw = ref [] in
  for i = 0 to w.len - 1 do
    let c = seg_crossing w i ~vt in
    if not (Float.is_nan c) then begin
      let valid =
        (* Strict: a ramp truncated exactly at the crossing instant
           only touches the threshold and does not cross it. *)
        if i = w.len - 1 then true else c < w.starts.(i + 1)
      in
      if valid then raw := (c, transition_at w i) :: !raw
    end
  done;
  let chronological = List.rev !raw in
  (* Exact-touch boundaries can record a crossing without the matching
     return crossing; enforce polarity alternation so the digital view
     is always consistent. *)
  let first_expected = if w.initial <= vt then Transition.Rising else Transition.Falling in
  let rec filter expected = function
    | [] -> []
    | (t, tr) :: rest ->
        if Transition.equal_polarity tr.Transition.polarity expected then
          (t, tr) :: filter (Transition.opposite expected) rest
        else filter expected rest
  in
  filter first_expected chronological

let crossings w ~vt =
  List.map
    (fun (t, tr) -> (t, tr.Transition.polarity))
    (crossings_with_transitions w ~vt)

let sample w ~t0 ~t1 ~dt =
  if dt <= 0. then invalid_arg "Waveform.sample: dt must be positive";
  let rec loop t acc = if t > t1 then List.rev acc else loop (t +. dt) ((t, value_at w t) :: acc) in
  loop t0 []
