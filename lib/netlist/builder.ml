module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value
module Names = Netlist.Names

type sig_info = {
  mutable s_driver : Netlist.gate_id option;
  mutable s_is_input : bool;
  mutable s_is_output : bool;
  s_constant : Value.t option;
  s_name : string;
}

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

  let get v i =
    assert (i >= 0 && i < v.len);
    v.data.(i)

  let to_array v = Array.sub v.data 0 v.len
end

type t = {
  name : string;
  sigs : sig_info Vec.t;
  gts : Netlist.gate Vec.t;
  by_name : Netlist.signal_id Names.t;
  gate_names : Netlist.gate_id Names.t;
  mutable inputs : Netlist.signal_id list; (* reversed *)
  mutable outputs : Netlist.signal_id list; (* reversed *)
  consts : (Value.t, Netlist.signal_id) Hashtbl.t;
  mutable fresh_counter : int;
  mutable finalized : bool;
}

let create name =
  {
    name;
    sigs = Vec.create ();
    gts = Vec.create ();
    by_name = Names.create 64;
    gate_names = Names.create 64;
    inputs = [];
    outputs = [];
    consts = Hashtbl.create 4;
    fresh_counter = 0;
    finalized = false;
  }

let check_live b = if b.finalized then invalid_arg "Builder: already finalized"

(* [name] must be unused: [new_signal] checks, [signal] and
   [fresh_signal] already know. *)
let add_signal b ~name ~constant =
  check_live b;
  let id = b.sigs.Vec.len in
  let info =
    {
      s_driver = None;
      s_is_input = false;
      s_is_output = false;
      s_constant = constant;
      s_name = name;
    }
  in
  Vec.push b.sigs info;
  Names.add b.by_name name id;
  id

let new_signal b ~name ~constant =
  check_live b;
  if Names.mem b.by_name name then
    invalid_arg (Printf.sprintf "Builder: signal name %S already used" name);
  add_signal b ~name ~constant

let input b name =
  let id = new_signal b ~name ~constant:None in
  (Vec.get b.sigs id).s_is_input <- true;
  b.inputs <- id :: b.inputs;
  id

let signal b name =
  match Names.find_opt b.by_name name with
  | Some id -> id
  | None -> add_signal b ~name ~constant:None

let fresh_signal b =
  let rec next () =
    let name = "w" ^ string_of_int b.fresh_counter in
    b.fresh_counter <- b.fresh_counter + 1;
    if Names.mem b.by_name name then next () else name
  in
  add_signal b ~name:(next ()) ~constant:None

let const b value =
  match Hashtbl.find_opt b.consts value with
  | Some id -> id
  | None ->
      let name = Printf.sprintf "const_%c" (Value.to_char value) in
      let id = new_signal b ~name ~constant:(Some value) in
      Hashtbl.replace b.consts value id;
      id

let add_gate ?name ?input_vt ?(extra_load = 0.) b kind ~inputs ~output =
  check_live b;
  let arity = Gate_kind.arity kind in
  if List.length inputs <> arity then
    invalid_arg
      (Printf.sprintf "Builder: gate kind %s expects %d inputs, got %d"
         (Gate_kind.name kind) arity (List.length inputs));
  let gname =
    match name with
    | Some n -> n
    | None -> Gate_kind.name kind ^ "_" ^ string_of_int b.gts.Vec.len
  in
  if Names.mem b.gate_names gname then
    invalid_arg (Printf.sprintf "Builder: gate name %S already used" gname);
  let vt =
    match input_vt with
    | None -> Array.make arity None
    | Some l ->
        if List.length l <> arity then
          invalid_arg "Builder: input_vt length must match gate arity";
        Array.of_list l
  in
  let out_info = Vec.get b.sigs output in
  if out_info.s_driver <> None then
    invalid_arg (Printf.sprintf "Builder: signal %S already driven" out_info.s_name);
  if out_info.s_is_input then
    invalid_arg (Printf.sprintf "Builder: cannot drive primary input %S" out_info.s_name);
  if out_info.s_constant <> None then
    invalid_arg (Printf.sprintf "Builder: cannot drive constant %S" out_info.s_name);
  let gid = b.gts.Vec.len in
  out_info.s_driver <- Some gid;
  (* range-check the inputs here: finalize indexes by them *)
  List.iter (fun sid -> ignore (Vec.get b.sigs sid)) inputs;
  let fanin = Array.of_list inputs in
  Vec.push b.gts
    { Netlist.gate_id = gid; gate_name = gname; kind; fanin; output; input_vt = vt; extra_load };
  Names.add b.gate_names gname gid;
  gid

let mark_output b id =
  check_live b;
  let info = Vec.get b.sigs id in
  if not info.s_is_output then b.outputs <- id :: b.outputs;
  info.s_is_output <- true

let finalize b =
  check_live b;
  b.finalized <- true;
  let gates = Vec.to_array b.gts and nsigs = b.sigs.Vec.len in
  (* each signal's loads in (gate, pin) order: count, then fill *)
  let fill = Array.make nsigs 0 in
  let each_pin f = Array.iter (fun (g : Netlist.gate) -> Array.iteri (f g.gate_id) g.fanin) gates in
  each_pin (fun _ _ sid -> fill.(sid) <- fill.(sid) + 1);
  let loads = Array.map (fun k -> Array.make k (0, 0)) fill in
  Array.fill fill 0 nsigs 0;
  each_pin (fun g pin sid ->
      loads.(sid).(fill.(sid)) <- (g, pin);
      fill.(sid) <- fill.(sid) + 1);
  let signals =
    Array.init nsigs (fun i ->
        let info = b.sigs.Vec.data.(i) in
        {
          Netlist.signal_id = i;
          signal_name = info.s_name;
          driver = info.s_driver;
          loads = loads.(i);
          is_primary_input = info.s_is_input;
          is_primary_output = info.s_is_output;
          constant = info.s_constant;
        })
  in
  Netlist.make ~name:b.name ~signals ~gates ~primary_inputs:(List.rev b.inputs)
    ~primary_outputs:(List.rev b.outputs) ~signal_by_name:b.by_name
