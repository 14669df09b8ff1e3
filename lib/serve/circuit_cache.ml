module Compiled = Halotis_engine.Compiled

type entry = { ce_compiled : Compiled.t; mutable ce_stamp : int }

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  {
    capacity = max 1 capacity;
    tbl = Hashtbl.create 16;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let key_of_source source = Digest.to_hex (Digest.string source)

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, stamp) when stamp <= e.ce_stamp -> acc
        | _ -> Some (k, e.ce_stamp))
      t.tbl None
  in
  match victim with
  | Some (k, _) ->
      Hashtbl.remove t.tbl k;
      t.evictions <- t.evictions + 1
  | None -> ()

let find_or_compile t ~key ~compile =
  t.clock <- t.clock + 1;
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.ce_stamp <- t.clock;
      t.hits <- t.hits + 1;
      (e.ce_compiled, true)
  | None ->
      let cp = compile () in
      if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
      Hashtbl.replace t.tbl key { ce_compiled = cp; ce_stamp = t.clock };
      t.misses <- t.misses + 1;
      (cp, false)

let entries t = Hashtbl.length t.tbl
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions

let to_json t =
  Halotis_util.Json.Obj
    [
      ("entries", Halotis_util.Json.Num (float_of_int (entries t)));
      ("capacity", Halotis_util.Json.Num (float_of_int t.capacity));
      ("hits", Halotis_util.Json.Num (float_of_int t.hits));
      ("misses", Halotis_util.Json.Num (float_of_int t.misses));
      ("evictions", Halotis_util.Json.Num (float_of_int t.evictions));
    ]
