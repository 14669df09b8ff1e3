type signal_dump = {
  dump_name : string;
  dump_initial : bool;
  dump_edges : Digital.edge list;
  dump_x_from : float option;
}

let ident_of_index i =
  (* VCD identifiers: printable ASCII 33..126; use a base-94 encoding. *)
  let base = 94 and first = 33 in
  let rec build i acc =
    let digit = Char.chr (first + (i mod base)) in
    let acc = String.make 1 digit ^ acc in
    if i < base then acc else build ((i / base) - 1) acc
  in
  build i ""

let render ?comment dumps =
  let buf = Buffer.create 4096 in
  let pr fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pr "$date reproduction run $end\n";
  pr "$version HALOTIS-ocaml $end\n";
  (match comment with Some c -> pr "$comment %s $end\n" c | None -> ());
  pr "$timescale 1ps $end\n";
  pr "$scope module halotis $end\n";
  List.iteri
    (fun i d -> pr "$var wire 1 %s %s $end\n" (ident_of_index i) d.dump_name)
    dumps;
  pr "$upscope $end\n$enddefinitions $end\n";
  pr "$dumpvars\n";
  List.iteri
    (fun i d -> pr "%c%s\n" (if d.dump_initial then '1' else '0') (ident_of_index i))
    dumps;
  pr "$end\n";
  let tick_of at = int_of_float (Float.round at) in
  let changes =
    List.concat
      (List.mapi
         (fun i d ->
           (* A frozen signal goes to x at the freeze instant and stays
              there: later edges (there should be none) are dropped. *)
           let edges =
             match d.dump_x_from with
             | None -> d.dump_edges
             | Some t ->
                 List.filter (fun (e : Digital.edge) -> e.Digital.at < t) d.dump_edges
           in
           let xs =
             match d.dump_x_from with
             | None -> []
             | Some t -> [ (tick_of t, i, 'x') ]
           in
           xs
           @ List.map
               (fun (e : Digital.edge) ->
                 let bit =
                   match e.Digital.polarity with Transition.Rising -> '1' | Falling -> '0'
                 in
                 (tick_of e.Digital.at, i, bit))
               edges)
         dumps)
  in
  let sorted = List.sort compare changes in
  let last_tick = ref (-1) in
  List.iter
    (fun (tick, i, bit) ->
      if tick <> !last_tick then begin
        pr "#%d\n" tick;
        last_tick := tick
      end;
      pr "%c%s\n" bit (ident_of_index i))
    sorted;
  Buffer.contents buf

let of_waveform ~name ~vt w =
  {
    dump_name = name;
    dump_initial = Waveform.initial w > vt;
    dump_edges = Digital.edges w ~vt;
    dump_x_from = None;
  }

let write_file ?comment path dumps =
  let oc = open_out path in
  output_string oc (render ?comment dumps);
  close_out oc
