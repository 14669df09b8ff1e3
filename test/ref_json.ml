(* The JSON emitter as it was before the integer fast path: every
   integral number through [Printf.sprintf "%.0f"] and every indent a
   fresh [String.make].  The reference [Halotis_util.Json.to_string]
   must match byte for byte. *)

module Json = Halotis_util.Json

let number_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string ?(indent = true) v =
  let buf = Buffer.create 256 in
  let pad depth = if indent then Buffer.add_string buf (String.make (2 * depth) ' ') in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Json.Null -> Buffer.add_string buf "null"
    | Json.Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Json.Num f -> Buffer.add_string buf (number_string f)
    | Json.Str s -> escape_string buf s
    | Json.Arr [] -> Buffer.add_string buf "[]"
    | Json.Arr items ->
        Buffer.add_char buf '[';
        nl ();
        List.iteri
          (fun i item ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            emit (depth + 1) item)
          items;
        nl ();
        pad depth;
        Buffer.add_char buf ']'
    | Json.Obj [] -> Buffer.add_string buf "{}"
    | Json.Obj fields ->
        Buffer.add_char buf '{';
        nl ();
        List.iteri
          (fun i (key, item) ->
            if i > 0 then begin
              Buffer.add_char buf ',';
              nl ()
            end;
            pad (depth + 1);
            escape_string buf key;
            Buffer.add_string buf (if indent then ": " else ":");
            emit (depth + 1) item)
          fields;
        nl ();
        pad depth;
        Buffer.add_char buf '}'
  in
  emit 0 v;
  Buffer.contents buf
