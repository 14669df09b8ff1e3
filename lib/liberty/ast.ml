type item =
  | Group of group
  | Attr of string * string
  | Complex of string * string list

and group = { g_name : string; g_args : string list; g_items : item list; g_line : int }

module Diag = Halotis_util.Diag

let fail line fmt = Diag.failf ~code:"liberty-parse" ~line fmt

type token = Ident of string | Str of string | Punct of char

let is_ident_char = function
  | '(' | ')' | '{' | '}' | ';' | ':' | ',' | '"' | ' ' | '\t' | '\n' | '\r' -> false
  | _ -> true

(* Tokenize the whole input up front; each token carries its line.  Also
   returns the last line, where an error at the end of input sits. *)
let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let i = ref 0 and line = ref 1 in
  (* step over one character, counting newlines *)
  let skip () =
    if text.[!i] = '\n' then incr line;
    incr i
  in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then skip ()
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let start = !line in
      i := !i + 2;
      while !i < n && not (text.[!i] = '*' && !i + 1 < n && text.[!i + 1] = '/') do
        skip ()
      done;
      if !i >= n then fail start "unterminated comment";
      i := !i + 2
    end
    else if c = '"' then begin
      let start = !line in
      incr i;
      let from = !i in
      while !i < n && text.[!i] <> '"' do
        skip ()
      done;
      if !i >= n then fail start "unterminated string";
      tokens := (start, Str (String.sub text from (!i - from))) :: !tokens;
      incr i
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      tokens := (!line, Ident (String.sub text start (!i - start))) :: !tokens
    end
    else begin
      tokens := (!line, Punct c) :: !tokens;
      incr i
    end
  done;
  let last = if n > 0 && text.[n - 1] = '\n' then max 1 (!line - 1) else !line in
  (List.rev !tokens, last)

(* A tiny recursive-descent parser over the token list. *)
type cursor = { mutable rest : (int * token) list; last : int }

let peek cur = match cur.rest with [] -> None | t :: _ -> Some t

let advance cur =
  match cur.rest with
  | [] -> fail cur.last "unexpected end of input"
  | t :: rest ->
      cur.rest <- rest;
      t

let expect_punct cur ch =
  match advance cur with
  | _, Punct c when c = ch -> ()
  | line, _ -> fail line "expected '%c'" ch

let rec parse_args cur acc =
  match peek cur with
  | Some (_, Punct ')') ->
      ignore (advance cur);
      List.rev acc
  | Some _ ->
      let arg =
        match advance cur with
        | _, Ident s | _, Str s -> s
        | line, Punct c -> fail line "unexpected '%c' in argument list" c
      in
      (match peek cur with
      | Some (_, Punct ',') -> ignore (advance cur)
      | Some _ | None -> ());
      parse_args cur (arg :: acc)
  | None -> fail cur.last "unterminated argument list"

let rec parse_group cur name g_line =
  let args = parse_args cur [] in
  match peek cur with
  | Some (_, Punct '{') ->
      ignore (advance cur);
      let items = parse_items cur [] in
      Group { g_name = name; g_args = args; g_items = items; g_line }
  | Some (_, Punct ';') ->
      ignore (advance cur);
      Complex (name, args)
  | Some (line, _) -> fail line "expected '{' or ';' after %s(...)" name
  | None -> fail cur.last "unexpected end after %s(...)" name

and parse_items cur acc =
  match peek cur with
  | Some (_, Punct '}') ->
      ignore (advance cur);
      List.rev acc
  | Some (line, Ident name) -> (
      ignore (advance cur);
      match peek cur with
      | Some (_, Punct '(') ->
          ignore (advance cur);
          parse_items cur (parse_group cur name line :: acc)
      | Some (_, Punct ':') ->
          ignore (advance cur);
          let value =
            match advance cur with
            | _, Ident s | _, Str s -> s
            | line, Punct c -> fail line "unexpected '%c' as attribute value" c
          in
          expect_punct cur ';';
          parse_items cur (Attr (name, value) :: acc)
      | Some (line, _) -> fail line "expected '(' or ':' after %s" name
      | None -> fail cur.last "unexpected end after %s" name)
  | Some (line, _) -> fail line "expected an identifier or '}'"
  | None -> fail cur.last "unterminated group"

let parse_string text =
  try
    let rest, last = tokenize text in
    let cur = { rest; last } in
    match advance cur with
    | line, Ident name -> (
        expect_punct cur '(';
        match parse_group cur name line with
        | Group g ->
            (match peek cur with
            | None -> Ok g
            | Some (line, _) -> fail line "content after top-level group")
        | Attr _ | Complex _ -> fail line "expected a group body")
    | line, _ -> fail line "expected a top-level group"
  with Diag.Fail e -> Error e

let find_groups g name =
  List.filter_map
    (function Group child when child.g_name = name -> Some child | Group _ | Attr _ | Complex _ -> None)
    g.g_items

let find_attr g name =
  List.find_map
    (function Attr (k, v) when k = name -> Some v | Attr _ | Group _ | Complex _ -> None)
    g.g_items

let find_complex g name =
  List.find_map
    (function
      | Complex (k, args) when k = name -> Some args | Complex _ | Group _ | Attr _ -> None)
    g.g_items
