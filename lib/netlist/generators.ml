module Gate_kind = Halotis_logic.Gate_kind
module Value = Halotis_logic.Value

let inverter_chain ~n () =
  assert (n >= 1);
  let b = Builder.create "inverter_chain" in
  let src = Builder.input b "in" in
  let rec stage prev i =
    let out = if i = n then Builder.signal b "out" else Builder.signal b (Printf.sprintf "out%d" i) in
    let _ =
      Builder.add_gate b Gate_kind.Inv ~name:(Printf.sprintf "g%d" i) ~inputs:[| prev |]
        ~output:out
    in
    if i = n then out else stage out (i + 1)
  in
  let out = stage src 1 in
  Builder.mark_output b out;
  Builder.finalize b

type fig1 = {
  circuit : Netlist.t;
  sig_in : Netlist.signal_id;
  sig_out0 : Netlist.signal_id;
  sig_out1 : Netlist.signal_id;
  sig_out2 : Netlist.signal_id;
  sig_out1c : Netlist.signal_id;
  sig_out2c : Netlist.signal_id;
}

let fig1_circuit ?(vt_low = 1.5) ?(vt_high = 4.0) () =
  let b = Builder.create "fig1" in
  let sig_in = Builder.input b "in" in
  let mid = Builder.signal b "mid" in
  let sig_out0 = Builder.signal b "out0" in
  let sig_out1 = Builder.signal b "out1" in
  let sig_out2 = Builder.signal b "out2" in
  let sig_out1c = Builder.signal b "out1c" in
  let sig_out2c = Builder.signal b "out2c" in
  let inv ?input_vt gname inputs output =
    ignore (Builder.add_gate b Gate_kind.Inv ~name:gname ?input_vt ~inputs ~output)
  in
  inv "chain_a" [| sig_in |] mid;
  inv "chain_b" [| mid |] sig_out0;
  inv ~input_vt:[| Some vt_low |] "g1" [| sig_out0 |] sig_out1;
  inv ~input_vt:[| Some vt_high |] "g2" [| sig_out0 |] sig_out2;
  inv "g1c" [| sig_out1 |] sig_out1c;
  inv "g2c" [| sig_out2 |] sig_out2c;
  List.iter (Builder.mark_output b) [ sig_out0; sig_out1; sig_out1c; sig_out2; sig_out2c ];
  let circuit = Builder.finalize b in
  { circuit; sig_in; sig_out0; sig_out1; sig_out2; sig_out1c; sig_out2c }

let full_adder b ~prefix ~a ~b:bb ~cin =
  let net suffix = Builder.signal b (prefix ^ "_" ^ suffix) in
  let axb = net "axb" in
  let sum = net "s" in
  let ab = net "ab" in
  let cx = net "cx" in
  let cout = net "cout" in
  let g kind gname inputs output =
    ignore (Builder.add_gate b kind ~name:(prefix ^ "_" ^ gname) ~inputs ~output)
  in
  g (Gate_kind.Xor 2) "x1" [| a; bb |] axb;
  g (Gate_kind.Xor 2) "x2" [| axb; cin |] sum;
  g (Gate_kind.And 2) "a1" [| a; bb |] ab;
  g (Gate_kind.And 2) "a2" [| axb; cin |] cx;
  g (Gate_kind.Or 2) "o1" [| ab; cx |] cout;
  (sum, cout)

let full_adder_nand9 b ~prefix ~a ~b:bb ~cin =
  let net suffix = Builder.signal b (prefix ^ "_" ^ suffix) in
  let g gname inputs output =
    ignore (Builder.add_gate b (Gate_kind.Nand 2) ~name:(prefix ^ "_" ^ gname) ~inputs ~output)
  in
  (* First half: axb = a xor b through four NANDs. *)
  let n1 = net "n1" in
  let n2 = net "n2" in
  let n3 = net "n3" in
  let axb = net "axb" in
  g "g1" [| a; bb |] n1;
  g "g2" [| a; n1 |] n2;
  g "g3" [| bb; n1 |] n3;
  g "g4" [| n2; n3 |] axb;
  (* Second half: sum = axb xor cin; cout = nand (n5, n1). *)
  let n5 = net "n5" in
  let n6 = net "n6" in
  let n7 = net "n7" in
  let sum = net "s" in
  let cout = net "cout" in
  g "g5" [| axb; cin |] n5;
  g "g6" [| axb; n5 |] n6;
  g "g7" [| cin; n5 |] n7;
  g "g8" [| n6; n7 |] sum;
  g "g9" [| n5; n1 |] cout;
  (sum, cout)

type adder = {
  adder_circuit : Netlist.t;
  a_bits : Netlist.signal_id list;
  b_bits : Netlist.signal_id list;
  sum_bits : Netlist.signal_id list;
}

let ripple_carry_adder ?(nand_only = false) ~bits () =
  assert (bits >= 1);
  let b = Builder.create "rca" in
  let a_bits = List.init bits (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let b_bits = List.init bits (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let fa = if nand_only then full_adder_nand9 else full_adder in
  let zero = Builder.const b Value.L0 in
  let rec chain i cin sums =
    if i = bits then (List.rev sums, cin)
    else begin
      let a = List.nth a_bits i and bb = List.nth b_bits i in
      let sum, cout = fa b ~prefix:(Printf.sprintf "fa%d" i) ~a ~b:bb ~cin in
      chain (i + 1) cout (sum :: sums)
    end
  in
  let sums, carry = chain 0 zero [] in
  let sum_bits = sums @ [ carry ] in
  List.iter (Builder.mark_output b) sum_bits;
  { adder_circuit = Builder.finalize b; a_bits; b_bits; sum_bits }

type multiplier = {
  mult_circuit : Netlist.t;
  ma_bits : Netlist.signal_id list;
  mb_bits : Netlist.signal_id list;
  product_bits : Netlist.signal_id list;
}

(* The carry-save (Braun) array of the paper's Fig. 5.

   Row 0 holds the raw partial products; in each later row j, cell i is
   a full adder combining pp(i,j), the diagonal sum S(i+1, j-1) from
   the previous row, and the carry C(i, j-1) saved by the same column
   of the previous row — the tie-0 inputs of the figure appear on the
   boundary cells.  Product bit s_j is S(0, j); after the last row a
   ripple (vector-merge) adder produces the high bits.  Carries thus
   propagate row-to-row instead of rippling within a row, which keeps
   the critical path short, exactly as in the figure. *)
let array_multiplier ?(nand_only = false) ~m ~n () =
  assert (m >= 1 && n >= 1);
  let b = Builder.create (Printf.sprintf "mult%dx%d" m n) in
  let ma_bits = List.init m (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let mb_bits = List.init n (fun j -> Builder.input b (Printf.sprintf "b%d" j)) in
  let ma = Array.of_list ma_bits and mb = Array.of_list mb_bits in
  let zero = Builder.const b Value.L0 in
  let fa = if nand_only then full_adder_nand9 else full_adder in
  let pp i j =
    let out = Builder.signal b (Printf.sprintf "pp_%d_%d" i j) in
    let _ =
      Builder.add_gate b (Gate_kind.And 2)
        ~name:(Printf.sprintf "ppg_%d_%d" i j)
        ~inputs:[| ma.(i); mb.(j) |]
        ~output:out
    in
    out
  in
  let sums = ref (Array.init m (fun i -> pp i 0)) in
  let carries = ref (Array.make m zero) in
  let products = ref [ !sums.(0) ] in
  for j = 1 to n - 1 do
    let next_sums = Array.make m zero and next_carries = Array.make m zero in
    for i = 0 to m - 1 do
      let diagonal = if i < m - 1 then !sums.(i + 1) else zero in
      let sum, cout =
        fa b ~prefix:(Printf.sprintf "fa_%d_%d" i j) ~a:(pp i j) ~b:diagonal
          ~cin:!carries.(i)
      in
      next_sums.(i) <- sum;
      next_carries.(i) <- cout
    done;
    sums := next_sums;
    carries := next_carries;
    products := !sums.(0) :: !products
  done;
  (* Vector merge: at weight n+k combine S(k+1, n-1) with C(k, n-1). *)
  let high = ref [] in
  let carry = ref zero in
  for k = 0 to m - 1 do
    let x = if k < m - 1 then !sums.(k + 1) else zero in
    let sum, cout = fa b ~prefix:(Printf.sprintf "vm_%d" k) ~a:x ~b:!carries.(k) ~cin:!carry in
    (* the very top vector-merge carry is provably 0 (the product fits
       in m+n bits); it stays internal and unloaded *)
    high := sum :: !high;
    carry := cout
  done;
  let product_bits = List.rev !products @ List.rev !high in
  List.iter (Builder.mark_output b) product_bits;
  (* the top vector-merge carry is provably 0 (a product always fits in
     m+n bits); expose it as an output so it is not dangling *)
  Builder.mark_output b !carry;
  { mult_circuit = Builder.finalize b; ma_bits; mb_bits; product_bits }

let random_combinational ?(name = "random") ~gates ~inputs ~seed () =
  assert (gates >= 1 && inputs >= 1);
  let rng = Halotis_util.Prng.create ~seed in
  let b = Builder.create name in
  let pool = ref (Array.init inputs (fun i -> Builder.input b (Printf.sprintf "in%d" i))) in
  let kinds = [| Gate_kind.Inv; Gate_kind.Nand 2; Gate_kind.Nor 2; Gate_kind.Xor 2 |] in
  let loaded = Hashtbl.create (gates * 2) in
  for g = 0 to gates - 1 do
    let kind = kinds.(Halotis_util.Prng.int rng ~bound:(Array.length kinds)) in
    let pick () =
      let sid = !pool.(Halotis_util.Prng.int rng ~bound:(Array.length !pool)) in
      Hashtbl.replace loaded sid ();
      sid
    in
    let ins = Array.init (Gate_kind.arity kind) (fun _ -> pick ()) in
    let out = Builder.fresh_signal b in
    let _ = Builder.add_gate b kind ~name:(Printf.sprintf "rg%d" g) ~inputs:ins ~output:out in
    let extended = Array.make (Array.length !pool + 1) out in
    Array.blit !pool 0 extended 0 (Array.length !pool);
    pool := extended
  done;
  Array.iter (fun sid -> if not (Hashtbl.mem loaded sid) then Builder.mark_output b sid) !pool;
  Builder.finalize b

type sr_latch = {
  latch_circuit : Netlist.t;
  sig_s_n : Netlist.signal_id;
  sig_r_n : Netlist.signal_id;
  sig_q : Netlist.signal_id;
  sig_qb : Netlist.signal_id;
}

let sr_latch_into builder ~prefix ~s_n ~r_n =
  let q = Builder.signal builder (prefix ^ "_q") in
  let qb = Builder.signal builder (prefix ^ "_qb") in
  let _ =
    Builder.add_gate builder (Gate_kind.Nand 2) ~name:(prefix ^ "_n1") ~inputs:[| s_n; qb |]
      ~output:q
  in
  let _ =
    Builder.add_gate builder (Gate_kind.Nand 2) ~name:(prefix ^ "_n2") ~inputs:[| r_n; q |]
      ~output:qb
  in
  (q, qb)

let sr_latch () =
  let b = Builder.create "sr_latch" in
  let sig_s_n = Builder.input b "s_n" in
  let sig_r_n = Builder.input b "r_n" in
  let sig_q, sig_qb = sr_latch_into b ~prefix:"l" ~s_n:sig_s_n ~r_n:sig_r_n in
  Builder.mark_output b sig_q;
  Builder.mark_output b sig_qb;
  { latch_circuit = Builder.finalize b; sig_s_n; sig_r_n; sig_q; sig_qb }

type latch_glitch = {
  lg_circuit : Netlist.t;
  lg_in : Netlist.signal_id;
  lg_glitch : Netlist.signal_id;
  lg_q_low : Netlist.signal_id;
  lg_q_high : Netlist.signal_id;
}

let latch_glitch_circuit () =
  let b = Builder.create "latch_glitch" in
  let lg_in = Builder.input b "in" in
  let mid = Builder.signal b "mid" in
  let glitch = Builder.signal b "glitch" in
  let r_n_low = Builder.signal b "r_n_low" in
  let r_n_high = Builder.signal b "r_n_high" in
  let s_n = Builder.const b Value.L1 in
  let inv ?input_vt gname inputs output =
    ignore (Builder.add_gate b Gate_kind.Inv ~name:gname ?input_vt ~inputs ~output)
  in
  (* two-inverter chain degrades the input pulse into a runt on glitch *)
  inv "chain_a" [| lg_in |] mid;
  inv "chain_b" [| mid |] glitch;
  (* the Fig. 1 pair: a low-threshold and a high-threshold inverter
     watch the same runt, each turning it into an active-low reset
     pulse for its own latch *)
  inv ~input_vt:[| Some 1.5 |] "sense_low" [| glitch |] r_n_low;
  inv ~input_vt:[| Some 4.0 |] "sense_high" [| glitch |] r_n_high;
  let q_low, qb_low = sr_latch_into b ~prefix:"ll" ~s_n ~r_n:r_n_low in
  let q_high, qb_high = sr_latch_into b ~prefix:"lh" ~s_n ~r_n:r_n_high in
  List.iter (Builder.mark_output b) [ q_low; qb_low; q_high; qb_high; glitch ];
  {
    lg_circuit = Builder.finalize b;
    lg_in;
    lg_glitch = glitch;
    lg_q_low = q_low;
    lg_q_high = q_high;
  }

(* Wallace-tree multiplier: column-wise 3:2 reduction of the partial
   products, then a ripple vector-merge.  Structurally very different
   from the Fig. 5 array (log-depth reduction, XOR-heavy), which makes
   it the natural foil for glitch-activity comparisons. *)
let wallace_multiplier ~m ~n () =
  assert (m >= 1 && n >= 1);
  let b = Builder.create (Printf.sprintf "wallace%dx%d" m n) in
  let ma_bits = List.init m (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let mb_bits = List.init n (fun j -> Builder.input b (Printf.sprintf "b%d" j)) in
  let ma = Array.of_list ma_bits and mb = Array.of_list mb_bits in
  let zero = Builder.const b Value.L0 in
  let counter = ref 0 in
  let fresh_prefix tag =
    incr counter;
    Printf.sprintf "%s%d" tag !counter
  in
  let half_adder a x =
    let prefix = fresh_prefix "ha" in
    let sum = Builder.signal b (prefix ^ "_s") in
    let carry = Builder.signal b (prefix ^ "_c") in
    let _ =
      Builder.add_gate b (Gate_kind.Xor 2) ~name:(prefix ^ "_x") ~inputs:[| a; x |] ~output:sum
    in
    let _ =
      Builder.add_gate b (Gate_kind.And 2) ~name:(prefix ^ "_a") ~inputs:[| a; x |]
        ~output:carry
    in
    (sum, carry)
  in
  let width = m + n in
  let columns = Array.make width [] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let out = Builder.signal b (Printf.sprintf "pp_%d_%d" i j) in
      let _ =
        Builder.add_gate b (Gate_kind.And 2)
          ~name:(Printf.sprintf "ppg_%d_%d" i j)
          ~inputs:[| ma.(i); mb.(j) |]
          ~output:out
      in
      columns.(i + j) <- out :: columns.(i + j)
    done
  done;
  (* 3:2 reduction rounds *)
  let needs_reduction () = Array.exists (fun col -> List.length col > 2) columns in
  while needs_reduction () do
    let next = Array.make width [] in
    Array.iteri
      (fun w col ->
        let rec reduce = function
          | a :: x :: y :: rest ->
              let sum, carry = full_adder b ~prefix:(fresh_prefix "cs") ~a ~b:x ~cin:y in
              next.(w) <- sum :: next.(w);
              if w + 1 < width then next.(w + 1) <- carry :: next.(w + 1);
              reduce rest
          | [ a; x ] when List.length col > 2 ->
              (* only compress pairs in columns that are shrinking *)
              let sum, carry = half_adder a x in
              next.(w) <- sum :: next.(w);
              if w + 1 < width then next.(w + 1) <- carry :: next.(w + 1);
              []
          | remainder ->
              next.(w) <- List.rev_append remainder next.(w);
              []
        in
        ignore (reduce col))
      columns;
    Array.blit next 0 columns 0 width
  done;
  (* vector merge: every column now has at most two entries *)
  let product_bits = ref [] in
  let carry = ref zero in
  for w = 0 to width - 1 do
    match columns.(w) with
    | [] ->
        product_bits := !carry :: !product_bits;
        carry := zero
    | [ a ] ->
        let sum, c = half_adder a !carry in
        product_bits := sum :: !product_bits;
        carry := c
    | [ a; x ] ->
        let sum, c = full_adder b ~prefix:(fresh_prefix "vm") ~a ~b:x ~cin:!carry in
        product_bits := sum :: !product_bits;
        carry := c
    | _ :: _ :: _ :: _ -> assert false
  done;
  let product_bits = List.rev !product_bits in
  List.iter (Builder.mark_output b) product_bits;
  { mult_circuit = Builder.finalize b; ma_bits; mb_bits; product_bits }

(* Carry-lookahead adder: generate/propagate per bit and a two-level
   AND-OR lookahead within 4-bit groups, group carries rippling.  Same
   function as the ripple-carry adder with a very different timing
   profile — the STA and hazard analyses tell them apart. *)
let carry_lookahead_adder ~bits () =
  assert (bits >= 1);
  let b = Builder.create "cla" in
  let a_bits = List.init bits (fun i -> Builder.input b (Printf.sprintf "a%d" i)) in
  let b_bits = List.init bits (fun i -> Builder.input b (Printf.sprintf "b%d" i)) in
  let a = Array.of_list a_bits and bb = Array.of_list b_bits in
  let zero = Builder.const b Value.L0 in
  let g gate_kind gname inputs output =
    ignore (Builder.add_gate b gate_kind ~name:gname ~inputs ~output)
  in
  let p = Array.make bits zero and gn = Array.make bits zero in
  for i = 0 to bits - 1 do
    let pi = Builder.signal b (Printf.sprintf "p%d" i) in
    let gi = Builder.signal b (Printf.sprintf "g%d" i) in
    g (Gate_kind.Xor 2) (Printf.sprintf "px%d" i) [| a.(i); bb.(i) |] pi;
    g (Gate_kind.And 2) (Printf.sprintf "ga%d" i) [| a.(i); bb.(i) |] gi;
    p.(i) <- pi;
    gn.(i) <- gi
  done;
  (* carries: c.(i) is the carry into bit i; groups of 4 share the
     lookahead from the group's carry-in *)
  let c = Array.make (bits + 1) zero in
  let group_start = ref 0 in
  while !group_start < bits do
    let s = !group_start in
    let limit = min (s + 4) bits in
    for i = s + 1 to limit do
      (* c_i = g_{i-1} | p_{i-1}g_{i-2} | ... | p_{i-1}..p_s c_s *)
      let terms = ref [] in
      for k = s to i - 1 do
        (* product p_{i-1} .. p_{k+1} (g_k | [c_s when k = s]) *)
        let factors = ref [ gn.(k) ] in
        for j = k + 1 to i - 1 do
          factors := p.(j) :: !factors
        done;
        let term =
          match !factors with
          | [ single ] -> single
          | fs ->
              let t = Builder.signal b (Printf.sprintf "t%d_%d" i k) in
              g (Gate_kind.And (List.length fs)) (Printf.sprintf "ta%d_%d" i k) (Array.of_list fs) t;
              t
        in
        terms := term :: !terms
      done;
      (* carry-in term: p_{i-1}..p_s c_s *)
      if c.(s) != zero then begin
        let factors = ref [ c.(s) ] in
        for j = s to i - 1 do
          factors := p.(j) :: !factors
        done;
        let t = Builder.signal b (Printf.sprintf "tc%d" i) in
        g (Gate_kind.And (List.length !factors)) (Printf.sprintf "tca%d" i) (Array.of_list !factors) t;
        terms := t :: !terms
      end;
      let ci =
        match !terms with
        | [ single ] -> single
        | ts ->
            let ci = Builder.signal b (Printf.sprintf "c%d" i) in
            g (Gate_kind.Or (List.length ts)) (Printf.sprintf "co%d" i) (Array.of_list ts) ci;
            ci
      in
      c.(i) <- ci
    done;
    group_start := limit
  done;
  let sum_bits =
    List.init bits (fun i ->
        let si = Builder.signal b (Printf.sprintf "s%d" i) in
        g (Gate_kind.Xor 2) (Printf.sprintf "sx%d" i) [| p.(i); c.(i) |] si;
        si)
    @ [ c.(bits) ]
  in
  List.iter (Builder.mark_output b) sum_bits;
  { adder_circuit = Builder.finalize b; a_bits; b_bits; sum_bits }

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

type dff = {
  dff_circuit : Netlist.t;
  dff_d : Netlist.signal_id;
  dff_clk : Netlist.signal_id;
  dff_q : Netlist.signal_id;
  dff_qb : Netlist.signal_id;
}

(* Positive-edge master-slave flip-flop: the master latch is
   transparent while the clock is low, the slave while it is high. *)
let dff_into b ~prefix ~d ~clk =
  let nclk = Builder.signal b (prefix ^ "_nclk") in
  let _ =
    Builder.add_gate b Gate_kind.Inv ~name:(prefix ^ "_ck") ~inputs:[| clk |] ~output:nclk
  in
  let mq, _mqb = d_latch_into b ~prefix:(prefix ^ "_m") ~d ~en:nclk in
  let q, qb = d_latch_into b ~prefix:(prefix ^ "_s") ~d:mq ~en:clk in
  (q, qb)

let dff () =
  let b = Builder.create "dff" in
  let dff_d = Builder.input b "d" in
  let dff_clk = Builder.input b "clk" in
  let dff_q, dff_qb = dff_into b ~prefix:"f" ~d:dff_d ~clk:dff_clk in
  Builder.mark_output b dff_q;
  Builder.mark_output b dff_qb;
  { dff_circuit = Builder.finalize b; dff_d; dff_clk; dff_q; dff_qb }

type counter = {
  ctr_circuit : Netlist.t;
  ctr_clk : Netlist.signal_id;
  ctr_q : Netlist.signal_id list;  (** LSB first *)
}

(* Asynchronous (ripple) counter: each stage is a DFF toggling on the
   falling edge of the previous stage's q (clocked by qb). *)
let ripple_counter ~bits () =
  assert (bits >= 1);
  let b = Builder.create "counter" in
  let ctr_clk = Builder.input b "clk" in
  let rec stage i clk qs =
    if i = bits then List.rev qs
    else begin
      let prefix = Printf.sprintf "b%d" i in
      (* d = qb: toggle on each active clock edge *)
      let d = Builder.signal b (prefix ^ "_s_qb") in
      (* d_latch_into/dff_into create <prefix>_s_qb as the slave's qb,
         so referencing it first wires the toggle feedback *)
      let q, qb = dff_into b ~prefix ~d ~clk in
      ignore qb;
      Builder.mark_output b q;
      stage (i + 1) q (q :: qs)
    end
  in
  let ctr_q = stage 0 ctr_clk [] in
  { ctr_circuit = Builder.finalize b; ctr_clk; ctr_q }
