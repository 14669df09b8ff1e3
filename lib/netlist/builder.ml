module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value
module Names = Netlist.Names

(* A minimal growable vector (Dynarray only landed in OCaml 5.2). *)
module Vec = struct
  type 'a t = { mutable data : 'a array; mutable len : int }

  let create () = { data = [||]; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let data = Array.make (max 16 (2 * v.len)) x in
      Array.blit v.data 0 data 0 v.len;
      v.data <- data
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  let to_array v = Array.sub v.data 0 v.len
end

(* a signal's role bits *)
let is_input = 1
and is_output = 2
and is_constant = 4

type t = {
  name : string;
  names : Names.t;  (* signal names; signal [i] is the table's id [i] *)
  mutable driver : int array;  (* per signal: its driving gate, or -1 *)
  mutable role : Bytes.t;  (* per signal: role bits *)
  gts : Netlist.gate Vec.t;
  gate_names : Names.t;
  mutable inputs : Netlist.signal_id list; (* reversed *)
  mutable outputs : Netlist.signal_id list; (* reversed *)
  mutable consts : (Value.t * Netlist.signal_id) list;
  mutable fresh_counter : int;
  mutable finalized : bool;
}

let create name =
  {
    name;
    names = Names.create ();
    driver = Array.make 64 (-1);
    role = Bytes.make 64 '\000';
    gts = Vec.create ();
    gate_names = Names.create ();
    inputs = [];
    outputs = [];
    consts = [];
    fresh_counter = 0;
    finalized = false;
  }

let check_live b = if b.finalized then invalid_arg "Builder: already finalized"

let check_signal nsigs id =
  if id < 0 || id >= nsigs then invalid_arg (Printf.sprintf "Builder: no signal %d" id)

(* The default [input_vt] of each arity up to 16: one all-[None] array
   shared by every gate, as a netlist is immutable. *)
let no_vt = Array.init 17 (fun n -> Array.make n None)

let has b id bit = Char.code (Bytes.get b.role id) land bit <> 0
let set b id bit = Bytes.set b.role id (Char.chr (Char.code (Bytes.get b.role id) lor bit))

(* The id of the slice's name, declaring it when it is new. *)
let intern b s pos len =
  check_live b;
  let count = Names.count b.names in
  let id = Names.intern b.names s pos len in
  if id = count && id = Array.length b.driver then begin
    let driver = Array.make (2 * id) (-1) and role = Bytes.make (2 * id) '\000' in
    Array.blit b.driver 0 driver 0 id;
    Bytes.blit b.role 0 role 0 id;
    b.driver <- driver;
    b.role <- role
  end;
  id

let new_signal b name =
  check_live b;
  if Names.find b.names name 0 (String.length name) >= 0 then
    invalid_arg (Printf.sprintf "Builder: signal name %S already used" name);
  intern b name 0 (String.length name)

let input b name =
  let id = new_signal b name in
  set b id is_input;
  b.inputs <- id :: b.inputs;
  id

let signal_sub b s pos len = intern b s pos len
let signal b name = intern b name 0 (String.length name)

let fresh_signal b =
  let rec next () =
    let name = "w" ^ string_of_int b.fresh_counter in
    b.fresh_counter <- b.fresh_counter + 1;
    if Names.find b.names name 0 (String.length name) >= 0 then next () else name
  in
  signal b (next ())

let const b value =
  match List.assoc_opt value b.consts with
  | Some id -> id
  | None ->
      let id = new_signal b (Printf.sprintf "const_%c" (Value.to_char value)) in
      set b id is_constant;
      b.consts <- (value, id) :: b.consts;
      id

let add_gate ?name ?input_vt ?(extra_load = 0.) b kind ~inputs ~output =
  check_live b;
  let arity = Gate_kind.arity kind in
  if Array.length inputs <> arity then
    invalid_arg
      (Printf.sprintf "Builder: gate kind %s expects %d inputs, got %d"
         (Gate_kind.name kind) arity (Array.length inputs));
  let gname =
    match name with
    | Some n -> n
    | None -> Gate_kind.name kind ^ "_" ^ string_of_int b.gts.Vec.len
  in
  if Names.find b.gate_names gname 0 (String.length gname) >= 0 then
    invalid_arg (Printf.sprintf "Builder: gate name %S already used" gname);
  let vt =
    match input_vt with
    | None -> if arity < Array.length no_vt then no_vt.(arity) else Array.make arity None
    | Some vt ->
        if Array.length vt <> arity then
          invalid_arg "Builder: input_vt length must match gate arity";
        vt
  in
  (* finalize indexes by the pins' signals *)
  let nsigs = Names.count b.names in
  check_signal nsigs output;
  for pin = 0 to arity - 1 do
    check_signal nsigs inputs.(pin)
  done;
  if b.driver.(output) >= 0 then
    invalid_arg (Printf.sprintf "Builder: signal %S already driven" (Names.name b.names output));
  if has b output is_input then
    invalid_arg
      (Printf.sprintf "Builder: cannot drive primary input %S" (Names.name b.names output));
  if has b output is_constant then
    invalid_arg (Printf.sprintf "Builder: cannot drive constant %S" (Names.name b.names output));
  let gid = Names.intern b.gate_names gname 0 (String.length gname) in
  b.driver.(output) <- gid;
  Vec.push b.gts
    {
      Netlist.gate_id = gid;
      gate_name = gname;
      kind;
      fanin = inputs;
      output;
      input_vt = vt;
      extra_load;
    };
  gid

let mark_output b id =
  check_live b;
  check_signal (Names.count b.names) id;
  if not (has b id is_output) then begin
    b.outputs <- id :: b.outputs;
    set b id is_output
  end

(* [k] placeholder loads: small arrays are literals, which allocate
   inline instead of through [Array.make]'s C call *)
let load_array k =
  let z = (0, 0) in
  match k with
  | 0 -> [||]
  | 1 -> [| z |]
  | 2 -> [| z; z |]
  | 3 -> [| z; z; z |]
  | 4 -> [| z; z; z; z |]
  | k -> Array.make k z

let finalize b =
  check_live b;
  b.finalized <- true;
  let gates = Vec.to_array b.gts and nsigs = Names.count b.names in
  (* each signal's loads in (gate, pin) order: count, then fill *)
  let fill = Array.make nsigs 0 in
  Array.iter
    (fun (g : Netlist.gate) ->
      for pin = 0 to Array.length g.fanin - 1 do
        fill.(g.fanin.(pin)) <- fill.(g.fanin.(pin)) + 1
      done)
    gates;
  let loads = Array.map load_array fill in
  Array.fill fill 0 nsigs 0;
  Array.iter
    (fun (g : Netlist.gate) ->
      for pin = 0 to Array.length g.fanin - 1 do
        let sid = g.fanin.(pin) in
        loads.(sid).(fill.(sid)) <- (g.gate_id, pin);
        fill.(sid) <- fill.(sid) + 1
      done)
    gates;
  let signals =
    Array.init nsigs (fun i ->
        let d = b.driver.(i) in
        {
          Netlist.signal_id = i;
          signal_name = Names.name b.names i;
          driver = (if d < 0 then None else Some d);
          loads = loads.(i);
          is_primary_input = has b i is_input;
          is_primary_output = has b i is_output;
          constant =
            (if has b i is_constant then
               List.find_map (fun (v, id) -> if id = i then Some v else None) b.consts
             else None);
        })
  in
  Netlist.make ~name:b.name ~signals ~gates ~primary_inputs:(List.rev b.inputs)
    ~primary_outputs:(List.rev b.outputs) ~signal_by_name:b.names
