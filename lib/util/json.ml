type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* --- emitter --- *)

(* Plain bytes are copied in runs between the characters that need an
   escape; the escapes are those of RFC 8259, control bytes as a
   lowercase [\u00XX]. *)
let escape_string buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let run = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !run then Buffer.add_substring buf s !run (i - !run);
      (match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c ->
          Buffer.add_string buf "\\u00";
          Buffer.add_char buf "0123456789abcdef".[Char.code c lsr 4];
          Buffer.add_char buf "0123456789abcdef".[Char.code c land 15]);
      run := i + 1
    end
  done;
  if n > !run then Buffer.add_substring buf s !run (n - !run);
  Buffer.add_char buf '"'

(* [Printf.sprintf "%.12g"] ends in this primitive
   ([CamlinternalFormat.convert_float], the [Float_g] case, no padding),
   so calling it directly prints the same bytes without building and
   interpreting a format per number. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integral values take the [string_of_int] path, which prints the same
   digits as [%.0f] below 1e15 at a fraction of the cost (reports are
   mostly counters); negative zero keeps its sign, as [%.0f] prints
   it. *)
let number_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else format_float "%.12g" f

let to_string ?(indent = true) v =
  let buf = Buffer.create 256 in
  let pad depth =
    if indent then
      for _ = 1 to 2 * depth do
        Buffer.add_char buf ' '
      done
  in
  let nl () = if indent then Buffer.add_char buf '\n' in
  let rec emit depth = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (number_string f)
    | Str s -> escape_string buf s
    | Arr [] -> Buffer.add_string buf "[]"
    | Arr items ->
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
    | Obj [] -> Buffer.add_string buf "{}"
    | Obj fields ->
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

(* --- parser --- *)

type parse_error = { pe_offset : int; pe_msg : string }

let parse_error_to_string e = Printf.sprintf "%s at offset %d" e.pe_msg e.pe_offset

exception Bad of int * string

let max_depth = 512

let parse_strict text =
  let n = String.length text in
  let pos = ref 0 in
  let fail msg = raise (Bad (!pos, msg)) in
  let at ch = !pos < n && String.unsafe_get text !pos = ch in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get text !pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect ch = if at ch then incr pos else fail (Printf.sprintf "expected %c" ch) in
  let literal word value =
    if !pos + String.length word <= n && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  let utf8_of_code buf code =
    if code < 0x80 then Buffer.add_char buf (Char.chr code)
    else if code < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
    end
  in
  (* The end of the plain run from [i]: the next quote or backslash,
     or [n]. *)
  let rec run_end i =
    if i >= n then n
    else match String.unsafe_get text i with '"' | '\\' -> i | _ -> run_end (i + 1)
  in
  (* One escape, [!pos] just past its backslash. *)
  let escape buf =
    if !pos >= n then fail "unterminated escape";
    let e = text.[!pos] in
    incr pos;
    match e with
    | '"' -> Buffer.add_char buf '"'
    | '\\' -> Buffer.add_char buf '\\'
    | '/' -> Buffer.add_char buf '/'
    | 'n' -> Buffer.add_char buf '\n'
    | 'r' -> Buffer.add_char buf '\r'
    | 't' -> Buffer.add_char buf '\t'
    | 'b' -> Buffer.add_char buf '\b'
    | 'f' -> Buffer.add_char buf '\012'
    | 'u' -> (
        if !pos + 4 > n then fail "truncated \\u escape";
        let hex = String.sub text !pos 4 in
        pos := !pos + 4;
        match int_of_string_opt ("0x" ^ hex) with
        | Some code -> utf8_of_code buf code
        | None -> fail "bad \\u escape")
    | _ -> fail "bad escape"
  in
  (* A literal is copied by runs: without an escape it is one
     [String.sub]; with one, each plain run goes into the buffer
     whole. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = run_end start in
    if stop >= n then begin
      pos := n;
      fail "unterminated string"
    end
    else if text.[stop] = '"' then begin
      pos := stop + 1;
      String.sub text start (stop - start)
    end
    else begin
      let buf = Buffer.create (stop - start + 16) in
      Buffer.add_substring buf text start (stop - start);
      pos := stop;
      (* [!pos] is at a quote or a backslash, or at [n] *)
      while not (at '"') do
        if !pos >= n then fail "unterminated string";
        incr pos;
        escape buf;
        let stop = run_end !pos in
        Buffer.add_substring buf text !pos (stop - !pos);
        pos := stop
      done;
      incr pos;
      Buffer.contents buf
    end
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    in
    while !pos < n && is_num_char text.[!pos] do
      incr pos
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  (* [depth]: the brackets open around the value; one more than
     [max_depth] is an error at the bracket that opens it. *)
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match text.[!pos] with
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | ('[' | '{') when depth >= max_depth -> fail "nesting too deep"
    | '[' ->
        incr pos;
        skip_ws ();
        if at ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while at ',' do
            incr pos;
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          Arr (List.rev !items)
        end
    | '{' ->
        incr pos;
        skip_ws ();
        if at '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (key, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while at ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | _ -> Num (parse_number ())
  in
  try
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then Error { pe_offset = !pos; pe_msg = "trailing garbage" } else Ok v
  with Bad (at, msg) -> Error { pe_offset = at; pe_msg = msg }

let parse text = Result.map_error parse_error_to_string (parse_strict text)

(* --- newline-delimited streams --- *)

module Lines = struct
  (* Unconsumed input is [buf.[pos, len)]; the bytes of a line that
     spans refills collect in [part].  Each byte is scanned for '\n' and
     copied a bounded number of times, so a line costs time linear in
     its length however many refills it spans. *)
  type reader = {
    refill : bytes -> int;  (* 0 = end of stream *)
    buf : bytes;
    mutable pos : int;
    mutable len : int;
    part : Buffer.t;
    mutable eof : bool;
  }

  let of_channel ic =
    {
      refill = (fun b -> input ic b 0 (Bytes.length b));
      buf = Bytes.create 4096;
      pos = 0;
      len = 0;
      part = Buffer.create 256;
      eof = false;
    }

  let of_string s =
    {
      refill = (fun _ -> 0);
      buf = Bytes.of_string s;
      pos = 0;
      len = String.length s;
      part = Buffer.create 16;
      eof = true;
    }

  let strip_cr line =
    let n = String.length line in
    if n > 0 && line.[n - 1] = '\r' then String.sub line 0 (n - 1) else line

  (* the first '\n' of [buf.[i, len)], or [len] *)
  let rec newline r i = if i >= r.len || Bytes.get r.buf i = '\n' then i else newline r (i + 1)

  let rec next r =
    let i = newline r r.pos in
    if i < r.len then begin
      let line =
        if Buffer.length r.part = 0 then Bytes.sub_string r.buf r.pos (i - r.pos)
        else begin
          Buffer.add_subbytes r.part r.buf r.pos (i - r.pos);
          let line = Buffer.contents r.part in
          Buffer.clear r.part;
          line
        end
      in
      r.pos <- i + 1;
      Some (strip_cr line)
    end
    else begin
      Buffer.add_subbytes r.part r.buf r.pos (r.len - r.pos);
      r.pos <- r.len;
      if r.eof then None
      else begin
        let k = r.refill r.buf in
        if k = 0 then r.eof <- true;
        r.pos <- 0;
        r.len <- k;
        next r
      end
    end

  let leftover r = Buffer.contents r.part ^ Bytes.sub_string r.buf r.pos (r.len - r.pos)

  let to_list r =
    let rec go acc = match next r with None -> List.rev acc | Some l -> go (l :: acc) in
    go []
end

(* --- accessors --- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

