type severity = Error | Warning | Note

type t = {
  severity : severity;
  code : string;
  file : string option;
  line : int option;
  message : string;
  hint : string option;
}

exception Fail of t

let make ?(severity = Error) ?file ?hint ~code message =
  { severity; code; file; line = None; message; hint }

let fail ?file ?hint ~code message = raise (Fail (make ?file ?hint ~code message))

let failf ~code ?hint ?line fmt =
  Format.kasprintf (fun m -> raise (Fail { (make ?hint ~code m) with line })) fmt

let parse_file parse path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.map_error (fun d -> { d with file = Some path }) (parse text)
  | exception Sys_error m ->
      (* opening names the path in its message; a failed read does not *)
      let m = if String.starts_with ~prefix:path m then m else path ^ ": " ^ m in
      Error (make ~code:"io" m)

let severity_string = function Error -> "error" | Warning -> "warning" | Note -> "note"

let to_string t =
  let b = Buffer.create 80 in
  Buffer.add_string b (severity_string t.severity);
  Buffer.add_char b '[';
  Buffer.add_string b t.code;
  Buffer.add_string b "]: ";
  (match t.file with
  | Some f ->
      Buffer.add_string b f;
      (match t.line with
      | Some l ->
          Buffer.add_char b ':';
          Buffer.add_string b (string_of_int l)
      | None -> ());
      Buffer.add_string b ": "
  | None -> ());
  Buffer.add_string b t.message;
  (match t.hint with
  | Some h ->
      Buffer.add_string b "\n  hint: ";
      Buffer.add_string b h
  | None -> ());
  Buffer.contents b

let pp fmt t = Format.pp_print_string fmt (to_string t)
