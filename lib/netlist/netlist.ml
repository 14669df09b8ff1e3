(* Names to dense ids, by open addressing on a hash of the name's
   bytes: a lookup reads a slice of its source in place, and a name's
   string is allocated once, when it is added. *)
module Names = struct
  (* A slot holds [tag lsl 31 lor (id + 1)], or 0 when empty: [tag] is
     the low 31 bits of the name's hash, which both screen a probe's
     string compare and place the name again when the table grows. *)
  type t = {
    mutable slots : int array;  (* a power of two long, at most half full *)
    mutable names : string array;  (* by id *)
    mutable count : int;
  }

  let create () = { slots = Array.make 128 0; names = Array.make 64 ""; count = 0 }
  let count t = t.count
  let name t id = if id < 0 || id >= t.count then invalid_arg "Names.name" else t.names.(id)
  let tag_bits = 31
  let id_mask = (1 lsl tag_bits) - 1

  (* FNV-1a (its 64-bit constants cut to OCaml's 63-bit ints), the high
     half folded onto the low bits; the tag *)
  let hash s pos len =
    let h = ref 0x0bf29ce484222325 in
    for i = pos to pos + len - 1 do
      h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
    done;
    (!h lxor (!h lsr 32)) land id_mask

  let same name s pos len =
    String.length name = len
    &&
    let j = ref 0 in
    while !j < len && String.unsafe_get name !j = String.unsafe_get s (pos + !j) do
      incr j
    done;
    !j = len

  (* the slot holding the slice's name, or the empty slot it would take *)
  let probe t s pos len tag =
    let mask = Array.length t.slots - 1 in
    let i = ref (tag land mask) in
    while
      let v = t.slots.(!i) in
      v <> 0 && not (v lsr tag_bits = tag && same t.names.((v land id_mask) - 1) s pos len)
    do
      i := (!i + 1) land mask
    done;
    !i

  let check s pos len =
    if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Names: bad slice"

  let find t s pos len =
    check s pos len;
    (t.slots.(probe t s pos len (hash s pos len)) land id_mask) - 1

  let rehash t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    Array.iter
      (fun v ->
        if v <> 0 then begin
          let i = ref ((v lsr tag_bits) land mask) in
          while slots.(!i) <> 0 do
            i := (!i + 1) land mask
          done;
          slots.(!i) <- v
        end)
      t.slots;
    t.slots <- slots

  let intern t s pos len =
    check s pos len;
    let tag = hash s pos len in
    let i = probe t s pos len tag in
    if t.slots.(i) <> 0 then (t.slots.(i) land id_mask) - 1
    else begin
      let id = t.count in
      if id = id_mask then invalid_arg "Names: table full";
      (* doubled; entries past [count] are never read *)
      if id = Array.length t.names then t.names <- Array.append t.names t.names;
      t.names.(id) <- (if pos = 0 && len = String.length s then s else String.sub s pos len);
      t.slots.(i) <- (tag lsl tag_bits) lor (id + 1);
      t.count <- id + 1;
      if 2 * t.count > Array.length t.slots then rehash t;
      id
    end
end

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
  signal_by_name : Names.t;
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
let find_signal t n =
  let id = Names.find t.signal_by_name n 0 (String.length n) in
  if id < 0 then None else Some id
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
  for i = 0 to nsignals - 1 do
    let s = signals.(i) in
    if s.signal_id <> i then fail "signal %s: id %d at index %d" s.signal_name s.signal_id i;
    (match s.driver with
    | Some g ->
        check_gate g;
        if s.is_primary_input then
          fail "signal %s: primary input cannot have a driver" s.signal_name;
        if Option.is_some s.constant then
          fail "signal %s: constant cannot have a driver" s.signal_name
    | None -> ());
    for k = 0 to Array.length s.loads - 1 do
      let g, pin = s.loads.(k) in
      check_gate g;
      let gate = gates.(g) in
      if pin < 0 || pin >= Array.length gate.fanin then
        fail "signal %s: load pin %d out of range for gate %s" s.signal_name pin gate.gate_name;
      if gate.fanin.(pin) <> i then
        fail "signal %s: load list disagrees with gate %s fanin" s.signal_name gate.gate_name
    done
  done;
  for i = 0 to ngates - 1 do
    let g = gates.(i) in
    if g.gate_id <> i then fail "gate %s: id %d at index %d" g.gate_name g.gate_id i;
    let arity = Halotis_logic.Gate_kind.arity g.kind in
    if Array.length g.fanin <> arity then
      fail "gate %s: %d fanin pins for kind %s" g.gate_name (Array.length g.fanin)
        (Halotis_logic.Gate_kind.name g.kind);
    if Array.length g.input_vt <> arity then fail "gate %s: input_vt length mismatch" g.gate_name;
    for pin = 0 to arity - 1 do
      check_sig g.fanin.(pin)
    done;
    check_sig g.output;
    match signals.(g.output).driver with
    | Some d when d = i -> ()
    | Some _ | None -> fail "gate %s: output signal does not record it as driver" g.gate_name
  done;
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
