(* [Generators.random_combinational] as it was before its signal pool
   grew by doubling: the pool was copied into a fresh array one cell
   longer for every gate, O(n^2) in time and words.  The test in
   [test_netlist.ml] checks that the library draws the same [Prng]
   numbers and so prints the same HNL text for fixed seeds and sizes;
   the benchmark's inputs come from this generator. *)

module Builder = Halotis_netlist.Builder
module Gate_kind = Halotis_logic.Gate_kind

let random_combinational ?(name = "random") ~gates ~inputs ~seed () =
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
