(* splitmix64: tiny, fast, and statistically adequate for workload
   generation.  Reference: Steele, Lea & Flood, OOPSLA 2014. *)

type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create ~seed = { state = mix (Int64.of_int seed) }

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state


let int g ~bound =
  assert (bound > 0);
  (* keep 62 bits so the value fits OCaml's 63-bit native int *)
  let raw = Int64.to_int (Int64.shift_right_logical (bits64 g) 2) in
  raw mod bound

let float g ~bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  bound *. (raw /. 9007199254740992.)

let bool g = Int64.logand (bits64 g) 1L = 1L
