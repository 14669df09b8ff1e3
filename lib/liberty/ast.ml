type item =
  | Group of group
  | Attr of string * string
  | Complex of string * string list

and group = { g_name : string; g_args : string list; g_items : item list }

module Diag = Halotis_util.Diag

let fail position fmt = Diag.failf ~code:"liberty-parse" ("offset %d: " ^^ fmt) position

type token = Ident of string | Str of string | Punct of char

let is_ident_char = function
  | '(' | ')' | '{' | '}' | ';' | ':' | ',' | '"' | ' ' | '\t' | '\n' | '\r' -> false
  | _ -> true

(* Tokenize the whole input up front; each token carries its offset. *)
let tokenize text =
  let n = String.length text in
  let tokens = ref [] in
  let i = ref 0 in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '/' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && text.[!i + 1] = '*' then begin
      let start = !i in
      i := !i + 2;
      let rec skip () =
        if !i + 1 >= n then fail start "unterminated comment"
        else if text.[!i] = '*' && text.[!i + 1] = '/' then i := !i + 2
        else begin
          incr i;
          skip ()
        end
      in
      skip ()
    end
    else if c = '"' then begin
      let start = !i in
      incr i;
      let buf = Buffer.create 16 in
      while !i < n && text.[!i] <> '"' do
        Buffer.add_char buf text.[!i];
        incr i
      done;
      if !i >= n then fail start "unterminated string";
      incr i;
      tokens := (start, Str (Buffer.contents buf)) :: !tokens
    end
    else if is_ident_char c then begin
      let start = !i in
      while !i < n && is_ident_char text.[!i] do
        incr i
      done;
      tokens := (start, Ident (String.sub text start (!i - start))) :: !tokens
    end
    else begin
      tokens := (!i, Punct c) :: !tokens;
      incr i
    end
  done;
  List.rev !tokens

(* A tiny recursive-descent parser over the token list. *)
type cursor = { mutable rest : (int * token) list }

let peek cur = match cur.rest with [] -> None | t :: _ -> Some t

let advance cur =
  match cur.rest with
  | [] -> fail max_int "unexpected end of input"
  | t :: rest ->
      cur.rest <- rest;
      t

let expect_punct cur ch =
  match advance cur with
  | _, Punct c when c = ch -> ()
  | pos, _ -> fail pos "expected '%c'" ch

let rec parse_args cur acc =
  match peek cur with
  | Some (_, Punct ')') ->
      ignore (advance cur);
      List.rev acc
  | Some _ ->
      let arg =
        match advance cur with
        | _, Ident s | _, Str s -> s
        | pos, Punct c -> fail pos "unexpected '%c' in argument list" c
      in
      (match peek cur with
      | Some (_, Punct ',') -> ignore (advance cur)
      | Some _ | None -> ());
      parse_args cur (arg :: acc)
  | None -> fail max_int "unterminated argument list"

let rec parse_group cur name =
  let args = parse_args cur [] in
  match peek cur with
  | Some (_, Punct '{') ->
      ignore (advance cur);
      let items = parse_items cur [] in
      Group { g_name = name; g_args = args; g_items = items }
  | Some (_, Punct ';') ->
      ignore (advance cur);
      Complex (name, args)
  | Some (pos, _) -> fail pos "expected '{' or ';' after %s(...)" name
  | None -> fail max_int "unexpected end after %s(...)" name

and parse_items cur acc =
  match peek cur with
  | Some (_, Punct '}') ->
      ignore (advance cur);
      List.rev acc
  | Some (pos, Ident name) -> (
      ignore (advance cur);
      match peek cur with
      | Some (_, Punct '(') ->
          ignore (advance cur);
          parse_items cur (parse_group cur name :: acc)
      | Some (_, Punct ':') ->
          ignore (advance cur);
          let value =
            match advance cur with
            | _, Ident s | _, Str s -> s
            | pos, Punct c -> fail pos "unexpected '%c' as attribute value" c
          in
          expect_punct cur ';';
          parse_items cur (Attr (name, value) :: acc)
      | Some (pos, _) -> fail pos "expected '(' or ':' after %s" name
      | None -> fail pos "unexpected end after %s" name)
  | Some (pos, _) -> fail pos "expected an identifier or '}'"
  | None -> fail max_int "unterminated group"

let parse_string text =
  try
    let cur = { rest = tokenize text } in
    match advance cur with
    | _, Ident name -> (
        expect_punct cur '(';
        match parse_group cur name with
        | Group g ->
            (match peek cur with
            | None -> Ok g
            | Some (pos, _) -> fail pos "content after top-level group")
        | Attr _ | Complex _ -> fail 0 "expected a group body")
    | pos, _ -> fail pos "expected a top-level group"
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
