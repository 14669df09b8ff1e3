module Netlist = Halotis_netlist.Netlist
module Check = Halotis_netlist.Check

type mode = Halt | Degrade

type config = { window : float; threshold : int; wd_mode : mode }

let default_window = 10_000.
let default_threshold = 256

let config ?(window = default_window) ?(threshold = default_threshold) ?(mode = Halt) () =
  { window; threshold; wd_mode = mode }

type t = {
  cfg : config;
  counts : int array;  (* events on this signal inside the current window *)
  win_start : float array;  (* where this signal's current window began *)
}

let create cfg ~nsignals =
  { cfg; counts = Array.make nsignals 0; win_start = Array.make nsignals neg_infinity }

let record t ~signal ~now =
  if now -. t.win_start.(signal) > t.cfg.window then begin
    t.win_start.(signal) <- now;
    t.counts.(signal) <- 1;
    false
  end
  else begin
    let c = t.counts.(signal) + 1 in
    t.counts.(signal) <- c;
    c >= t.cfg.threshold
  end

let freeze_set netlist ~signal =
  match (Netlist.signal netlist signal).Netlist.driver with
  | None -> [ signal ]
  | Some driver -> (
      let scc =
        List.find_opt (fun gs -> List.mem driver gs) (Check.sccs netlist)
      in
      match scc with
      | Some gates when List.length gates > 1 ->
          List.sort_uniq compare
            (List.map (fun g -> (Netlist.gate netlist g).Netlist.output) gates)
      | _ -> [ signal ])

let offender_names netlist signals =
  List.sort compare (List.map (Netlist.signal_name netlist) signals)

type frozen = {
  fz_marks : Bytes.t;
  mutable fz_any : bool;
  mutable fz_rev : (int * float) list;
}

let frozen ~nsignals = { fz_marks = Bytes.make nsignals '\000'; fz_any = false; fz_rev = [] }

let thaw fz =
  List.iter (fun (sid, _) -> Bytes.set fz.fz_marks sid '\000') fz.fz_rev;
  fz.fz_rev <- [];
  fz.fz_any <- false

(* In [Halt] mode the whole run stops; in [Degrade] mode the offending
   feedback loop is frozen so the engine schedules nothing more on it
   while the rest of the circuit keeps simulating. *)
let trip t netlist fz ~signal ~at =
  let fs = freeze_set netlist ~signal in
  match t.cfg.wd_mode with
  | Halt -> Some (Stop.Oscillation (offender_names netlist fs))
  | Degrade ->
      List.iter
        (fun s ->
          if Bytes.get fz.fz_marks s = '\000' then begin
            Bytes.set fz.fz_marks s '\001';
            fz.fz_rev <- (s, at) :: fz.fz_rev
          end)
        fs;
      fz.fz_any <- true;
      None

let suggest_threshold ~scc_gates =
  (* A feedback loop of [scc_gates] gates oscillates with a period of
     roughly 2 x scc_gates x one gate delay (~50 ps in the built-in
     technology), so each loop signal toggles about
     window / (scc_gates * 50) times per window.  Half that rate trips
     on a genuine oscillator well within one window while staying far
     above what quiescing logic produces; the floor keeps tiny loops
     (an inverter pair) from tripping on legitimate bursts. *)
  let scc_gates = max 1 scc_gates in
  let expected = default_window /. (50. *. float_of_int scc_gates) in
  max 16 (int_of_float (expected /. 2.))
