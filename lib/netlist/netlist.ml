module Names = Hashtbl.Make (String)

type signal_id = int
type gate_id = int

type gate = {
  gate_id : gate_id;
  gate_name : string;
  kind : Halotis_logic.Gate_kind.t;
  fanin : signal_id array;
  output : signal_id;
  input_vt : float option array;
  extra_load : float;
}

type signal = {
  signal_id : signal_id;
  signal_name : string;
  driver : gate_id option;
  loads : (gate_id * int) array;
  is_primary_input : bool;
  is_primary_output : bool;
  constant : Halotis_logic.Value.t option;
}

type t = {
  name : string;
  signals : signal array;
  gates : gate array;
  primary_inputs : signal_id list;
  primary_outputs : signal_id list;
  signal_by_name : signal_id Names.t;
}

let name t = t.name
let signal_count t = Array.length t.signals
let gate_count t = Array.length t.gates
let signal t id = t.signals.(id)
let gate t id = t.gates.(id)
let signals t = t.signals
let gates t = t.gates
let primary_inputs t = t.primary_inputs
let primary_outputs t = t.primary_outputs
let find_signal t n = Names.find_opt t.signal_by_name n
let signal_name t id = t.signals.(id).signal_name
let gate_name t id = t.gates.(id).gate_name

let fanout_gates t id =
  let seen = Hashtbl.create 8 in
  Array.fold_left
    (fun acc (g, _pin) ->
      if Hashtbl.mem seen g then acc
      else begin
        Hashtbl.add seen g ();
        g :: acc
      end)
    [] t.signals.(id).loads
  |> List.rev

let validate ~signals ~gates ~primary_inputs ~primary_outputs =
  let fail fmt = Format.kasprintf invalid_arg fmt in
  let nsignals = Array.length signals and ngates = Array.length gates in
  let check_sig id = if id < 0 || id >= nsignals then fail "signal id %d out of range" id in
  let check_gate id = if id < 0 || id >= ngates then fail "gate id %d out of range" id in
  Array.iteri
    (fun i s ->
      if s.signal_id <> i then fail "signal %s: id %d at index %d" s.signal_name s.signal_id i;
      (match s.driver with Some g -> check_gate g | None -> ());
      if s.is_primary_input && s.driver <> None then
        fail "signal %s: primary input cannot have a driver" s.signal_name;
      if s.constant <> None && s.driver <> None then
        fail "signal %s: constant cannot have a driver" s.signal_name;
      Array.iter
        (fun (g, pin) ->
          check_gate g;
          let gate = gates.(g) in
          if pin < 0 || pin >= Array.length gate.fanin then
            fail "signal %s: load pin %d out of range for gate %s" s.signal_name pin
              gate.gate_name;
          if gate.fanin.(pin) <> i then
            fail "signal %s: load list disagrees with gate %s fanin" s.signal_name
              gate.gate_name)
        s.loads)
    signals;
  Array.iteri
    (fun i g ->
      if g.gate_id <> i then fail "gate %s: id %d at index %d" g.gate_name g.gate_id i;
      let arity = Halotis_logic.Gate_kind.arity g.kind in
      if Array.length g.fanin <> arity then
        fail "gate %s: %d fanin pins for kind %s" g.gate_name (Array.length g.fanin)
          (Halotis_logic.Gate_kind.name g.kind);
      if Array.length g.input_vt <> arity then
        fail "gate %s: input_vt length mismatch" g.gate_name;
      Array.iter check_sig g.fanin;
      check_sig g.output;
      if Option.value signals.(g.output).driver ~default:(-1) <> i then
        fail "gate %s: output signal does not record it as driver" g.gate_name)
    gates;
  List.iter
    (fun id ->
      check_sig id;
      if not signals.(id).is_primary_input then
        fail "signal %s listed as PI but not flagged" signals.(id).signal_name)
    primary_inputs;
  List.iter check_sig primary_outputs

let make ~name ~signals ~gates ~primary_inputs ~primary_outputs ~signal_by_name =
  validate ~signals ~gates ~primary_inputs ~primary_outputs;
  { name; signals; gates; primary_inputs; primary_outputs; signal_by_name }

let pp_summary fmt t =
  Format.fprintf fmt "%s: %d gates, %d signals, %d inputs, %d outputs" t.name
    (gate_count t) (signal_count t)
    (List.length t.primary_inputs)
    (List.length t.primary_outputs)
