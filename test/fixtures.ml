(* Circuits, lookups and stimulus patterns only the suite uses: gates by
   name, a fanout tree, a gated D latch, a linear-feedback shift
   register, random multiplier operands, walking ones and Gray codes.
   The circuits are built the way the generators build theirs. *)

module Netlist = Halotis_netlist.Netlist
module Builder = Halotis_netlist.Builder
module Gate_kind = Halotis_logic.Gate_kind
module Vectors = Halotis_stim.Vectors
module Prng = Halotis_util.Prng

(* The id of the gate named [n]. *)
let gate_named c n =
  match Array.find_opt (fun g -> g.Netlist.gate_name = n) (Netlist.gates c) with
  | Some g -> g.Netlist.gate_id
  | None -> Alcotest.failf "no gate %s" n

(* A complete binary tree of buffers of the given depth driving
   [2^depth] outputs: fanout stress. *)
let buffer_tree ?(name = "buffer_tree") ~depth () =
  assert (depth >= 1);
  let b = Builder.create name in
  let root = Builder.input b "in" in
  let rec expand level nodes =
    if level = depth then nodes
    else
      let next =
        List.concat_map
          (fun src ->
            let mk side =
              let out = Builder.fresh_signal b in
              let _ =
                Builder.add_gate b Gate_kind.Buf
                  ~name:(Printf.sprintf "buf_l%d_%d_%s" level out side)
                  ~inputs:[| src |] ~output:out
              in
              out
            in
            [ mk "a"; mk "b" ])
          nodes
      in
      expand (level + 1) next
  in
  let leaves = expand 0 [ root ] in
  List.iter (Builder.mark_output b) leaves;
  Builder.finalize b

(* Gated (transparent) D latch, four NANDs:
   n1 = nand(d, en); n2 = nand(n1, en); q = nand(n1, qb); qb = nand(n2, q). *)
let d_latch_into b ~prefix ~d ~en =
  let net suffix = Builder.signal b (prefix ^ "_" ^ suffix) in
  let g gname inputs output =
    ignore
      (Builder.add_gate b (Gate_kind.Nand 2) ~name:(prefix ^ "_" ^ gname) ~inputs ~output)
  in
  let n1 = net "n1" in
  let n2 = net "n2" in
  let q = net "q" in
  let qb = net "qb" in
  g "g1" [| d; en |] n1;
  g "g2" [| n1; en |] n2;
  g "g3" [| n1; qb |] q;
  g "g4" [| n2; q |] qb;
  (q, qb)

type d_latch = {
  dl_circuit : Netlist.t;
  dl_d : Netlist.signal_id;
  dl_en : Netlist.signal_id;
  dl_q : Netlist.signal_id;
  dl_qb : Netlist.signal_id;
}

(* [q] follows [d] while [en] is high and holds while it is low. *)
let d_latch ?(name = "d_latch") () =
  let b = Builder.create name in
  let dl_d = Builder.input b "d" in
  let dl_en = Builder.input b "en" in
  let dl_q, dl_qb = d_latch_into b ~prefix:"l" ~d:dl_d ~en:dl_en in
  Builder.mark_output b dl_q;
  Builder.mark_output b dl_qb;
  { dl_circuit = Builder.finalize b; dl_d; dl_en; dl_q; dl_qb }

(* Positive-edge master-slave flip-flop: the master latch is
   transparent while the clock is low, the slave while it is high. *)
let dff_into b ~prefix ~d ~clk =
  let nclk = Builder.signal b (prefix ^ "_nclk") in
  let _ =
    Builder.add_gate b Gate_kind.Inv ~name:(prefix ^ "_ck") ~inputs:[| clk |] ~output:nclk
  in
  let mq, _mqb = d_latch_into b ~prefix:(prefix ^ "_m") ~d ~en:nclk in
  d_latch_into b ~prefix:(prefix ^ "_s") ~d:mq ~en:clk

type lfsr = {
  lfsr_circuit : Netlist.t;
  lfsr_clk : Netlist.signal_id;
  lfsr_taps : Netlist.signal_id list;  (** flip-flop outputs, stage 0 first *)
}

(* Fibonacci LFSR: a shift register of master-slave flip-flops with an
   XOR of the tap stages feeding stage 0.  The DC relaxation
   initialises every latch to q = 1, which is not the XOR lock-up state
   (all zeros), so the register walks its sequence from the first
   clock edge. *)
let lfsr ?(name = "lfsr") ~bits ~taps () =
  assert (bits >= 2);
  assert (taps <> [] && List.for_all (fun t -> t >= 0 && t < bits) taps);
  let b = Builder.create name in
  let lfsr_clk = Builder.input b "clk" in
  let feedback = Builder.signal b "feedback" in
  let qs = ref [] in
  let d = ref feedback in
  for i = 0 to bits - 1 do
    let q, _qb = dff_into b ~prefix:(Printf.sprintf "s%d" i) ~d:!d ~clk:lfsr_clk in
    Builder.mark_output b q;
    qs := q :: !qs;
    d := q
  done;
  let stages = List.rev !qs in
  (match List.map (fun t -> List.nth stages t) taps with
  | [ single ] ->
      ignore (Builder.add_gate b Gate_kind.Buf ~name:"fb" ~inputs:[| single |] ~output:feedback)
  | tap_signals ->
      ignore
        (Builder.add_gate b
           (Gate_kind.Xor (List.length tap_signals))
           ~name:"fb" ~inputs:(Array.of_list tap_signals) ~output:feedback));
  { lfsr_circuit = Builder.finalize b; lfsr_clk; lfsr_taps = stages }

(* Uniformly random operand pairs. *)
let random_ops ~bits ~count ~seed =
  let rng = Prng.create ~seed in
  let bound = 1 lsl bits in
  List.init count (fun _ ->
      { Vectors.op_a = Prng.int rng ~bound; op_b = Prng.int rng ~bound })

(* The classic delay-test pattern [0; 1; 0; 2; 0; 4; ...]: each bit
   pulses alone against a quiet background. *)
let walking_ones ~bits =
  assert (bits >= 1);
  List.concat (List.init bits (fun i -> [ 0; 1 lsl i ])) @ [ 0 ]

(* All [2^bits] values in Gray order: exactly one input bit changes per
   vector. *)
let gray_code ~bits =
  assert (bits >= 1);
  List.init (1 lsl bits) (fun i -> i lxor (i lsr 1))
