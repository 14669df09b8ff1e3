module Netlist = Halotis_netlist.Netlist
module Tech = Halotis_tech.Tech
module Param_overlay = Halotis_tech.Param_overlay
module Delay_model = Halotis_delay.Delay_model

type t = {
  circuit : Netlist.t;
  tech : Tech.t;
  overlay : Param_overlay.t;
  nsignals : int;
  ngates : int;
  npins : int;
  g_kind : Halotis_logic.Gate_kind.t array;
  g_out : int array;
  g_base : int array;
  pin_fanin : int array;
  pin_vt : float array;
  fan_off : int array;
  fan_gate : int array;
  fan_pin : int array;
  topo_order : int array option;
  cache : Delay_model.Cache.t;
}

type cone = {
  cone_victim : int;
  cone_gates : int array;
  cone_signals : int array;
  cone_bnd_gate : int array;
  cone_bnd_pin : int array;
}

(* The walk's membership marks, clear between walks. *)
type cone_marks = { cm_signal : Bytes.t; cm_gate : Bytes.t }

let cone_marks cp =
  { cm_signal = Bytes.make cp.nsignals '\000'; cm_gate = Bytes.make (max 1 cp.ngates) '\000' }

let mem_sorted (a : int array) x =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let v = a.(mid) in
    v = x || if v < x then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length a)

(* The static fanout cone of a victim signal: its driver gate plus the
   transitive fanout closure.  Closure over fanout means a perturbation
   of the victim can only ever schedule events on cone-gate pins, so a
   run restricted to these gates is self-contained; the driver gate is
   included because its native output activity interleaves with (and is
   degraded by) the spliced pulse on the victim waveform itself. *)
let fanout_cone ?marks cp ~victim =
  if victim < 0 || victim >= cp.nsignals then
    invalid_arg "Compiled.fanout_cone: unknown signal";
  let { cm_signal = smem; cm_gate = gmem } =
    match marks with
    | Some m ->
        if Bytes.length m.cm_signal <> cp.nsignals then
          invalid_arg "Compiled.fanout_cone: marks are for a different netlist";
        m
    | None -> cone_marks cp
  in
  (* members are listed as the walk marks them, then sorted, and the
     marks are cleared over the members again: a cone costs
     O(cone log cone), not a scan of the circuit *)
  let gates = ref [] and signals = ref [ victim ] in
  let add_gate g =
    Bytes.set gmem g '\001';
    gates := g :: !gates
  in
  Bytes.set smem victim '\001';
  Option.iter add_gate (Netlist.signal cp.circuit victim).Netlist.driver;
  let work = ref [ victim ] in
  while !work <> [] do
    match !work with
    | [] -> ()
    | sid :: rest ->
        work := rest;
        for e = cp.fan_off.(sid) to cp.fan_off.(sid + 1) - 1 do
          let g = cp.fan_gate.(e) in
          if Bytes.get gmem g = '\000' then begin
            add_gate g;
            let out = cp.g_out.(g) in
            if Bytes.get smem out = '\000' then begin
              Bytes.set smem out '\001';
              signals := out :: !signals;
              work := out :: !work
            end
          end
        done
  done;
  let sorted l =
    let a = Array.of_list l in
    Array.sort Int.compare a;
    a
  in
  let gates = sorted !gates and signals = sorted !signals in
  (* Boundary feeds: cone-gate pins driven from outside the cone.  A
     cone-restricted run replays the baseline's activity on these pins
     verbatim — the rest of the circuit cannot be perturbed by the
     victim, so that activity is already final. *)
  let bnd_gate = ref [] and bnd_pin = ref [] in
  Array.iter
    (fun g ->
      let base = cp.g_base.(g) in
      for pin = 0 to cp.g_base.(g + 1) - base - 1 do
        if Bytes.get smem cp.pin_fanin.(base + pin) = '\000' then begin
          bnd_gate := g :: !bnd_gate;
          bnd_pin := pin :: !bnd_pin
        end
      done)
    gates;
  Array.iter (fun sid -> Bytes.set smem sid '\000') signals;
  Array.iter (fun g -> Bytes.set gmem g '\000') gates;
  {
    cone_victim = victim;
    cone_gates = gates;
    cone_signals = signals;
    cone_bnd_gate = Array.of_list (List.rev !bnd_gate);
    cone_bnd_pin = Array.of_list (List.rev !bnd_pin);
  }

(* Without a circuit-sized membership array a cone carries no netlist
   identity; its largest ids must at least fit. *)
let check_cone ~who cp cone =
  let fits a n = Array.length a = 0 || a.(Array.length a - 1) < n in
  if not (fits cone.cone_signals cp.nsignals && fits cone.cone_gates cp.ngates) then
    invalid_arg (who ^ ": cone is for a different netlist")

(* Kahn's algorithm over the CSR arrays: a gate's in-degree counts its
   pins fed by a gate-driven signal, and popping a gate releases the
   loads of its output.  [order] doubles as the FIFO queue.  [None]
   when some gates are never released: the circuit has feedback. *)
let topo_order ~nsignals ~ngates ~g_out ~g_base ~pin_fanin ~fan_off ~fan_gate =
  let driven = Bytes.make nsignals '\000' in
  Array.iter (fun sid -> Bytes.set driven sid '\001') g_out;
  let indegree = Array.make ngates 0 and order = Array.make ngates 0 and tail = ref 0 in
  for g = 0 to ngates - 1 do
    for p = g_base.(g) to g_base.(g + 1) - 1 do
      if Bytes.get driven pin_fanin.(p) = '\001' then indegree.(g) <- indegree.(g) + 1
    done;
    if indegree.(g) = 0 then begin
      order.(!tail) <- g;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let out = g_out.(order.(!head)) in
    incr head;
    for e = fan_off.(out) to fan_off.(out + 1) - 1 do
      let g = fan_gate.(e) in
      indegree.(g) <- indegree.(g) - 1;
      if indegree.(g) = 0 then begin
        order.(!tail) <- g;
        incr tail
      end
    done
  done;
  if !tail = ngates then Some order else None

let compile ?(overlay = Param_overlay.empty) tech c =
  let nsignals = Netlist.signal_count c and ngates = Netlist.gate_count c in
  let g_kind = Array.init ngates (fun gid -> (Netlist.gate c gid).Netlist.kind) in
  let g_out = Array.init ngates (fun gid -> (Netlist.gate c gid).Netlist.output) in
  let g_base = Array.make (ngates + 1) 0 in
  for gid = 0 to ngates - 1 do
    g_base.(gid + 1) <- g_base.(gid) + Array.length (Netlist.gate c gid).Netlist.fanin
  done;
  let npins = g_base.(ngates) in
  let pin_fanin = Array.make (max 1 npins) (-1) in
  let vt_table = Halotis_delay.Thresholds.table tech c in
  let pin_vt = Array.make (max 1 npins) 0. in
  let scaled = not (Param_overlay.is_empty overlay) in
  for gid = 0 to ngates - 1 do
    let g = Netlist.gate c gid in
    let base = g_base.(gid) in
    let vts = if scaled then Param_overlay.vt_scale overlay ~gate:gid else 1.0 in
    Array.iteri
      (fun pin sid ->
        pin_fanin.(base + pin) <- sid;
        pin_vt.(base + pin) <-
          (if scaled then vt_table.(gid).(pin) *. vts else vt_table.(gid).(pin)))
      g.Netlist.fanin
  done;
  let fan_off = Array.make (nsignals + 1) 0 in
  for sid = 0 to nsignals - 1 do
    fan_off.(sid + 1) <- fan_off.(sid) + Array.length (Netlist.signal c sid).Netlist.loads
  done;
  let nedges = fan_off.(nsignals) in
  let fan_gate = Array.make (max 1 nedges) 0 and fan_pin = Array.make (max 1 nedges) 0 in
  for sid = 0 to nsignals - 1 do
    Array.iteri
      (fun k (lg, lpin) ->
        fan_gate.(fan_off.(sid) + k) <- lg;
        fan_pin.(fan_off.(sid) + k) <- lpin)
      (Netlist.signal c sid).Netlist.loads
  done;
  let loads = Halotis_delay.Loads.of_netlist tech c in
  {
    circuit = c;
    tech;
    overlay;
    nsignals;
    ngates;
    npins;
    g_kind;
    g_out;
    g_base;
    pin_fanin;
    pin_vt;
    fan_off;
    fan_gate;
    fan_pin;
    topo_order = topo_order ~nsignals ~ngates ~g_out ~g_base ~pin_fanin ~fan_off ~fan_gate;
    cache = Delay_model.Cache.create ~overlay tech c ~loads;
  }

(* A shared [Compiled.t] must be exactly the run's netlist, tech and
   overlay; the first two are checked by physical equality. *)
let check ~who cp ~overlay tech c =
  let fail what = invalid_arg (who ^ ": compiled structure is for a different " ^ what) in
  if cp.circuit != c then fail "netlist";
  if cp.tech != tech then fail "technology";
  if not (Param_overlay.equal cp.overlay overlay) then fail "overlay"

let resolve ~who ?compiled ~overlay tech c =
  match compiled with
  | Some cp ->
      check ~who cp ~overlay tech c;
      cp
  | None -> compile ~overlay tech c
