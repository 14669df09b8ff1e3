(* Monotonic clock, sample statistics and process probes shared by every
   workload. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let time f =
  let t0 = now () in
  let x = f () in
  (x, now () -. t0)

(* Linear interpolation between closest ranks; nan on no samples. *)
let quantile xs q =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then Float.nan
  else begin
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    if i + 1 >= n then a.(n - 1) else a.(i) +. ((pos -. float_of_int i) *. (a.(i + 1) -. a.(i)))
  end
let median xs = quantile xs 0.5

let sum xs = List.fold_left ( +. ) 0. xs

(* A latency histogram in constant memory, so that the benchmark's own
   bookkeeping does not grow with the work done (and with peak RSS):
   buckets 1% wide from 0.01 up to about 4e6, quantiles interpolated
   within a bucket. *)
type hist = { counts : int array; mutable total : int }

let hist_base = 0.01
let hist_step = log 1.01
let hist () = { counts = Array.make 2000 0; total = 0 }
let bucket_lo b = hist_base *. exp (float_of_int b *. hist_step)

let add h x =
  let b =
    if x <= hist_base then 0
    else min (Array.length h.counts - 1) (truncate (log (x /. hist_base) /. hist_step))
  in
  h.counts.(b) <- h.counts.(b) + 1;
  h.total <- h.total + 1

let hist_quantile h q =
  if h.total = 0 then Float.nan
  else begin
    let target = q *. float_of_int h.total in
    let rec go b cum =
      let c = h.counts.(b) in
      if b = Array.length h.counts - 1 || (c > 0 && float_of_int (cum + c) >= target) then
        let lo = bucket_lo b and hi = bucket_lo (b + 1) in
        lo +. ((hi -. lo) *. Float.max 0. ((target -. float_of_int cum) /. float_of_int (max 1 c)))
      else go (b + 1) (cum + c)
    in
    go 0 0
  end

let hist_of xs =
  let h = hist () in
  List.iter (add h) xs;
  h

(* Peak resident set of this process, from /proc/self/status (VmHWM). *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> Float.nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> Float.nan
            | line ->
                if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                    (fun kb -> float_of_int kb /. 1024.)
                else scan ()
          in
          scan ())

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let digest_value v = Digest.to_hex (Digest.string (Marshal.to_string v [ Marshal.No_sharing ]))
