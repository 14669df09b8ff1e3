(* Export audit: every [val] of a lib/**/*.mli must be named outside its
   own module by a unit in lib/, bin/, bench/, perfbench/, examples/ or
   doc/, and every optional label of one must be passed by a caller
   outside its module in lib/, bin/, bench/ or perfbench/, unless the
   export or label is a deliberate test seam on the allowlist.

     dune build @check
     cd _build/default && test/export_audit/export_audit.exe . ../../test/export_audit/allowlist

   [dune runtest] runs it.  TREE is the source tree to audit, relative
   to the build directory that holds its .cmt and .cmti files
   (executables get theirs from [@check] only); ALLOWLIST holds one
   [Module.name] or [Module.name?label] per line, then why it stays.

   Uses are read from the typed trees, so a name counts only where the
   compiler resolved it to the export: [module X = P] and
   [let module X = P] aliases are followed, also when another unit
   defines them, and an optional argument the caller left out (a
   ghost-located [None] in the typed tree) is not a pass.

   Prints one line per offence and exits 1 when it prints anything:
     DEAD Module.name         named nowhere outside its module;
     TEST Module.name         named outside its module only under test/;
     LABEL Module.name?label  no caller outside its module in lib/, bin/,
                              bench/ or perfbench/ passes the label;
     STALE entry              an allowlist entry that no longer flags.
   A value of a nested module shows as [Module.Sub.name]. *)

open Typedtree

let callers = [ "lib"; "bin"; "bench"; "perfbench"; "examples"; "doc" ]
let label_callers = [ "lib"; "bin"; "bench"; "perfbench" ]

(* Every .cmt and .cmti under [dir], dune's hidden objs directories too. *)
let rec annot_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then annot_files p
         else if Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti" then [ p ]
         else [])

(* A compilation unit: [key] is its module name, except that every
   executable names its modules [Dune__exe__M], so theirs are told apart
   by their objs directory [dir].  [area] is the top directory of its
   source. *)
type unit_info = { key : string; dir : string; area : string }

let qualify dir name =
  if String.starts_with ~prefix:"Dune__exe" name then dir ^ ":" ^ name else name

(* A name is a list: a unit key, then module and value names.  A module
   local to a unit has the head [key#unique_name]. *)
let name_of u path =
  match Path.flatten path with
  | `Contains_apply -> None
  | `Ok (id, fields) ->
      let head =
        if Ident.global id then qualify u.dir (Ident.name id)
        else u.key ^ "#" ^ Ident.unique_name id
      in
      Some (head :: fields)

(* Module name -> the name it stands for: an alias's target, or a local
   module's qualified name. *)
let aliases : (string list, string list) Hashtbl.t = Hashtbl.create 1024

(* Left to right, every module prefix is replaced by what it names. *)
let rec resolve name = List.fold_left (fun p f -> expand (p @ [ f ])) [] name
and expand p = match Hashtbl.find_opt aliases p with Some q -> resolve q | None -> p

let rec alias_target u me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> name_of u p
  | Tmod_constraint (me, _, _, _) -> alias_target u me
  | _ -> None

let ghost_none e =
  e.exp_loc.loc_ghost
  && match e.exp_desc with Texp_construct (_, { cstr_name = "None"; _ }, []) -> true | _ -> false

(* The unit's aliases go into [aliases]; its uses are returned
   unresolved, as (name, label) with label [""] for a plain reference,
   since an alias they go through may live in a unit not read yet. *)
let scan_structure u str =
  let found = ref [] and prefix = ref [ u.key ] in
  let use path label = Option.iter (fun n -> found := (n, label) :: !found) (name_of u path) in
  let bind id q = Hashtbl.replace aliases [ u.key ^ "#" ^ Ident.unique_name id ] q in
  let it = Tast_iterator.default_iterator in
  let expr self e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) -> use p ""
    | Texp_apply ({ exp_desc = Texp_ident (p, _, _); _ }, args) ->
        List.iter
          (function Asttypes.Optional l, Some a when not (ghost_none a) -> use p l | _ -> ())
          args
    | Texp_letmodule (Some id, _, _, me, _) -> Option.iter (bind id) (alias_target u me)
    | _ -> ());
    it.expr self e
  in
  let module_binding self mb =
    let outer = !prefix in
    Option.iter
      (fun id ->
        let q = outer @ [ Ident.name id ] in
        bind id q;
        Option.iter (Hashtbl.replace aliases q) (alias_target u mb.mb_expr);
        prefix := q)
      mb.mb_id;
    it.module_binding self mb;
    prefix := outer
  in
  let self = { it with expr; module_binding } in
  self.structure self str;
  !found

type export = { unit_key : string; name : string list; shown : string; labels : string list }

let rec optional_labels ty =
  match Types.get_desc ty with
  | Tarrow (Optional l, _, rest, _) -> l :: optional_labels rest
  | Tarrow (_, _, rest, _) -> optional_labels rest
  | _ -> []

let rec signature_exports u name shown items =
  List.concat_map
    (fun item ->
      match item.sig_desc with
      | Tsig_value vd ->
          let v = vd.val_name.txt in
          [
            {
              unit_key = u.key;
              name = name @ [ v ];
              shown = shown ^ "." ^ v;
              labels = optional_labels vd.val_val.val_type;
            };
          ]
      | Tsig_module { md_id = Some id; md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          let m = Ident.name id in
          signature_exports u (name @ [ m ]) (shown ^ "." ^ m) s.sig_items
      | _ -> [])
    items

let () =
  let tree, allowlist_file =
    match Sys.argv with
    | [| _; tree; allowlist |] -> (tree, allowlist)
    | _ ->
        prerr_endline "usage: export_audit TREE ALLOWLIST";
        exit 2
  in
  let root = if tree = "." then "" else tree ^ "/" in
  let exports = ref [] and found = ref [] in
  List.iter
    (fun file ->
      let cmt = Cmt_format.read_cmt file in
      match cmt.cmt_sourcefile with
      | Some src when String.starts_with ~prefix:root src -> (
          let src = String.sub src (String.length root) (String.length src - String.length root) in
          let dir = Filename.dirname file in
          let area = List.hd (String.split_on_char '/' src) in
          let u = { key = qualify dir cmt.cmt_modname; dir; area } in
          match cmt.cmt_annots with
          | Implementation str -> found := (u, scan_structure u str) :: !found
          | Interface sg when area = "lib" ->
              let shown = String.capitalize_ascii (Filename.remove_extension (Filename.basename src)) in
              exports := (src, signature_exports u [ u.key ] shown sg.sig_items) :: !exports
          | _ -> ())
      | _ -> ())
    (annot_files tree);
  (* (resolved name, label) -> (unit key, area) of each user *)
  let uses = Hashtbl.create 4096 in
  List.iter
    (fun (u, l) -> List.iter (fun (n, label) -> Hashtbl.add uses (resolve n, label) (u.key, u.area)) l)
    !found;
  let allowlist =
    In_channel.with_open_text allowlist_file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with
           | e :: _ when e <> "" && e.[0] <> '#' -> Some e
           | _ -> None)
  in
  let seen = ref [] and status = ref 0 in
  let report kind entry =
    Printf.printf "%s %s\n" kind entry;
    status := 1
  in
  let flag kind entry =
    if kind <> "DEAD" && List.mem entry allowlist then seen := entry :: !seen else report kind entry
  in
  List.sort compare !exports
  |> List.iter (fun (_, es) ->
         List.iter
           (fun e ->
             let outside label =
               List.filter (fun (k, _) -> k <> e.unit_key) (Hashtbl.find_all uses (e.name, label))
             in
             let from areas label = List.exists (fun (_, a) -> List.mem a areas) (outside label) in
             if outside "" = [] then flag "DEAD" e.shown
             else if not (from callers "") then flag "TEST" e.shown;
             List.iter
               (fun l -> if not (from label_callers l) then flag "LABEL" (e.shown ^ "?" ^ l))
               e.labels)
           es);
  List.iter (fun e -> if not (List.mem e !seen) then report "STALE" e) allowlist;
  exit !status
