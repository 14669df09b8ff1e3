type issue =
  | Undriven_signal of Netlist.signal_id
  | Dangling_signal of Netlist.signal_id
  | Unused_primary_input of Netlist.signal_id
  | Combinational_cycle of Netlist.gate_id list

let pp_issue c fmt = function
  | Undriven_signal id -> Format.fprintf fmt "undriven signal %s" (Netlist.signal_name c id)
  | Dangling_signal id -> Format.fprintf fmt "dangling signal %s" (Netlist.signal_name c id)
  | Unused_primary_input id ->
      Format.fprintf fmt "unused primary input %s" (Netlist.signal_name c id)
  | Combinational_cycle gids ->
      Format.fprintf fmt "combinational cycle: %s"
        (String.concat " -> " (List.map (Netlist.gate_name c) gids))

(* Kahn's algorithm over the gate graph; an edge g1 -> g2 exists when
   g1's output feeds one of g2's pins. *)
let topo_with_cycle c =
  let ngates = Netlist.gate_count c in
  let indegree = Array.make ngates 0 in
  (* one edge per load *pin*: a gate wired twice to the same signal
     contributes two edges, matching the indegree count below *)
  let gate_succs gid =
    let g = Netlist.gate c gid in
    Array.to_list
      (Array.map fst (Netlist.signal c g.Netlist.output).Netlist.loads)
  in
  for gid = 0 to ngates - 1 do
    let g = Netlist.gate c gid in
    Array.iter
      (fun sid ->
        match (Netlist.signal c sid).Netlist.driver with
        | Some _ -> indegree.(gid) <- indegree.(gid) + 1
        | None -> ())
      g.Netlist.fanin
  done;
  let queue = Queue.create () in
  Array.iteri (fun gid d -> if d = 0 then Queue.add gid queue) indegree;
  let order = ref [] in
  let visited = ref 0 in
  while not (Queue.is_empty queue) do
    let gid = Queue.pop queue in
    order := gid :: !order;
    incr visited;
    List.iter
      (fun succ ->
        indegree.(succ) <- indegree.(succ) - 1;
        if indegree.(succ) = 0 then Queue.add succ queue)
      (gate_succs gid)
  done;
  if !visited = ngates then Ok (List.rev !order)
  else begin
    (* Gates never popped have final indegree > 0 and each has at least
       one unpopped predecessor, so walking backwards must revisit a
       gate: that closes a cycle. *)
    let unpopped gid = indegree.(gid) > 0 in
    let start =
      let rec find gid = if unpopped gid then gid else find (gid + 1) in
      find 0
    in
    let predecessor gid =
      let g = Netlist.gate c gid in
      let drivers =
        Array.to_list g.Netlist.fanin
        |> List.filter_map (fun sid -> (Netlist.signal c sid).Netlist.driver)
      in
      List.find unpopped drivers
    in
    let rec walk path gid =
      if List.mem gid path then
        (* [path] is most-recent-first; the entries from its head down
           to the revisited gate are the cycle (anything older is the
           acyclic tail walked before entering it).  Head-first order is
           forward edge order: each kept gate feeds the next, and the
           revisited gate feeds the head. *)
        let rec take = function
          | [] -> []
          | x :: rest -> if x = gid then [ x ] else x :: take rest
        in
        take path
      else walk (gid :: path) (predecessor gid)
    in
    Error (walk [] start)
  end

let topological_gates c = match topo_with_cycle c with Ok l -> Some l | Error _ -> None

let find_cycle c = match topo_with_cycle c with Ok _ -> None | Error cycle -> Some cycle

(* Iterative Tarjan over the gate graph (explicit frame stack: gate
   graphs can be deep enough that recursion is a liability). *)
let sccs c =
  let n = Netlist.gate_count c in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref [] in
  let succs gid = Netlist.fanout_gates c (Netlist.gate c gid).Netlist.output in
  let frames = Stack.create () in
  let open_frame gid =
    index.(gid) <- !counter;
    lowlink.(gid) <- !counter;
    incr counter;
    stack := gid :: !stack;
    on_stack.(gid) <- true;
    Stack.push (gid, ref (succs gid)) frames
  in
  for root = 0 to n - 1 do
    if index.(root) = -1 then begin
      open_frame root;
      while not (Stack.is_empty frames) do
        let gid, remaining = Stack.top frames in
        match !remaining with
        | succ :: rest ->
            remaining := rest;
            if index.(succ) = -1 then open_frame succ
            else if on_stack.(succ) then lowlink.(gid) <- min lowlink.(gid) index.(succ)
        | [] ->
            ignore (Stack.pop frames);
            (match Stack.top_opt frames with
            | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(gid)
            | None -> ());
            if lowlink.(gid) = index.(gid) then begin
              let rec pop acc =
                match !stack with
                | member :: rest ->
                    stack := rest;
                    on_stack.(member) <- false;
                    if member = gid then member :: acc else pop (member :: acc)
                | [] -> assert false
              in
              let component = pop [] in
              let cyclic =
                match component with
                | [ only ] -> List.mem only (succs only) (* self-loop *)
                | _ -> true
              in
              if cyclic then result := component :: !result
            end
      done
    end
  done;
  List.rev !result

let structural_issues c =
  let issues = ref [] in
  Array.iter
    (fun (s : Netlist.signal) ->
      let driven = s.driver <> None || s.is_primary_input || s.constant <> None in
      if not driven then issues := Undriven_signal s.signal_id :: !issues;
      if Array.length s.loads = 0 && not s.is_primary_output && s.constant = None then
        if s.is_primary_input then
          issues := Unused_primary_input s.signal_id :: !issues
        else issues := Dangling_signal s.signal_id :: !issues)
    (Netlist.signals c);
  List.iter (fun scc -> issues := Combinational_cycle scc :: !issues) (sccs c);
  List.rev !issues

let levelize c =
  match topological_gates c with
  | None -> None
  | Some order ->
      let nsignals = Netlist.signal_count c in
      let sig_level = Array.make nsignals 0 in
      let gate_level = Array.make (Netlist.gate_count c) 0 in
      List.iter
        (fun gid ->
          let g = Netlist.gate c gid in
          let lvl =
            Array.fold_left (fun acc sid -> max acc sig_level.(sid)) 0 g.Netlist.fanin + 1
          in
          gate_level.(gid) <- lvl;
          sig_level.(g.Netlist.output) <- lvl)
        order;
      Some gate_level

let depth c =
  match levelize c with
  | None -> None
  | Some levels -> Some (Array.fold_left max 0 levels)

let max_fanout c =
  Array.fold_left
    (fun acc (s : Netlist.signal) -> max acc (Array.length s.loads))
    0 (Netlist.signals c)

let pi_reachable_gates c =
  let nsignals = Netlist.signal_count c in
  let ngates = Netlist.gate_count c in
  let sig_seen = Array.make nsignals false in
  let gate_seen = Array.make ngates false in
  let queue = Queue.create () in
  List.iter
    (fun sid ->
      sig_seen.(sid) <- true;
      Queue.add sid queue)
    (Netlist.primary_inputs c);
  while not (Queue.is_empty queue) do
    let sid = Queue.pop queue in
    List.iter
      (fun gid ->
        if not gate_seen.(gid) then begin
          gate_seen.(gid) <- true;
          let out = (Netlist.gate c gid).Netlist.output in
          if not sig_seen.(out) then begin
            sig_seen.(out) <- true;
            Queue.add out queue
          end
        end)
      (Netlist.fanout_gates c sid)
  done;
  gate_seen

let constant_signals c =
  let nsignals = Netlist.signal_count c in
  let value = Array.make nsignals Halotis_logic.Value.X in
  Array.iter
    (fun (s : Netlist.signal) ->
      match s.Netlist.constant with
      | Some v -> value.(s.Netlist.signal_id) <- v
      | None -> ())
    (Netlist.signals c);
  (* Fixpoint constant propagation; converges on cyclic graphs too
     because values only move X -> rail, never back. *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (g : Netlist.gate) ->
        let out = g.Netlist.output in
        if Halotis_logic.Value.equal value.(out) Halotis_logic.Value.X then begin
          let ins = Array.map (fun sid -> value.(sid)) g.Netlist.fanin in
          let v = Halotis_logic.Gate_kind.eval g.Netlist.kind ins in
          match v with
          | Halotis_logic.Value.L0 | Halotis_logic.Value.L1 ->
              value.(out) <- v;
              changed := true
          | Halotis_logic.Value.X | Halotis_logic.Value.Z -> ()
        end)
      (Netlist.gates c)
  done;
  value
