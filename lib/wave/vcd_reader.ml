type signal = { rd_name : string; rd_initial : bool; rd_edges : Digital.edge list }
type t = { timescale_ps : float; signals : signal list }

module Diag = Halotis_util.Diag

let fail line fmt =
  Diag.failf ~code:"vcd-parse"
    ~hint:"the reader takes scalar 1-bit wires, as `halotis simulate --vcd` writes them" ~line fmt

(* whitespace-separated tokens with their line numbers *)
let tokenize text =
  let tokens = ref [] in
  List.iteri
    (fun idx line ->
      String.split_on_char ' ' line
      |> List.concat_map (String.split_on_char '\t')
      |> List.iter (fun tok -> if tok <> "" then tokens := (idx + 1, tok) :: !tokens))
    (String.split_on_char '\n' text);
  List.rev !tokens

let unit_to_ps = function
  | "s" -> 1e12
  | "ms" -> 1e9
  | "us" -> 1e6
  | "ns" -> 1e3
  | "ps" -> 1.
  | "fs" -> 1e-3
  | _ -> -1.

(* "1ps" | "10" "ns" *)
let parse_timescale line toks =
  match toks with
  | [ single ] ->
      let digits = String.to_seq single |> Seq.take_while (fun c -> c >= '0' && c <= '9') in
      let ndigits = Seq.length digits in
      if ndigits = 0 then fail line "bad timescale %S" single
      else begin
        let mag = float_of_string (String.sub single 0 ndigits) in
        let unit = String.sub single ndigits (String.length single - ndigits) in
        let k = unit_to_ps unit in
        if k < 0. then fail line "bad timescale unit %S" unit else mag *. k
      end
  | [ mag; unit ] -> (
      match (float_of_string_opt mag, unit_to_ps unit) with
      | Some m, k when k > 0. -> m *. k
      | _, _ -> fail line "bad timescale %S %S" mag unit)
  | _ -> fail line "bad timescale"

type var_state = {
  v_name : string;
  mutable v_init : bool option;
  mutable v_last : bool option;
  mutable v_rev_edges : Digital.edge list;
}

let parse_string text =
  try
    let toks = ref (tokenize text) in
    let next () =
      match !toks with
      | [] -> None
      | t :: rest ->
          toks := rest;
          Some t
    in
    (* collect tokens until $end *)
    let rec until_end line acc =
      match next () with
      | None -> fail line "missing $end"
      | Some (_, "$end") -> List.rev acc
      | Some (_, tok) -> until_end line (tok :: acc)
    in
    let timescale = ref 1. in
    let vars : (string, var_state) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    let now = ref 0. in
    let change line id value =
      match Hashtbl.find_opt vars id with
      | None -> fail line "value change for undeclared id %S" id
      | Some v -> (
          match v.v_last with
          | None ->
              if !now > 0. then begin
                v.v_init <- Some (not value);
                v.v_rev_edges <-
                  {
                    Digital.at = !now;
                    polarity = (if value then Transition.Rising else Transition.Falling);
                  }
                  :: v.v_rev_edges
              end
              else v.v_init <- Some value;
              v.v_last <- Some value
          | Some last ->
              if last <> value then begin
                v.v_rev_edges <-
                  {
                    Digital.at = !now;
                    polarity = (if value then Transition.Rising else Transition.Falling);
                  }
                  :: v.v_rev_edges;
                v.v_last <- Some value
              end)
    in
    let rec loop () =
      match next () with
      | None -> ()
      | Some (line, tok) ->
          (if tok = "$timescale" then timescale := parse_timescale line (until_end line [])
           else if tok = "$var" then begin
             match until_end line [] with
             | [ ("wire" | "reg"); "1"; id; name ] ->
                 if not (Hashtbl.mem vars id) then begin
                   Hashtbl.replace vars id
                     { v_name = name; v_init = None; v_last = None; v_rev_edges = [] };
                   order := id :: !order
                 end
             | kind :: width :: _ when kind = "wire" || kind = "reg" ->
                 if width <> "1" then fail line "only 1-bit variables are supported"
                 else fail line "malformed $var"
             | _ -> fail line "unsupported $var declaration"
           end
           else if
             tok = "$scope" || tok = "$upscope" || tok = "$enddefinitions"
             || tok = "$date" || tok = "$version" || tok = "$comment"
           then ignore (until_end line [])
           else if tok = "$dumpvars" || tok = "$dumpall" || tok = "$dumpon" then ()
           else if tok = "$end" then ()
           else if tok.[0] = '#' then begin
             match float_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
             | Some t -> now := t *. !timescale
             | None -> fail line "bad time %S" tok
           end
           else if tok.[0] = '0' || tok.[0] = '1' then begin
             if String.length tok < 2 then fail line "scalar change without id";
             change line (String.sub tok 1 (String.length tok - 1)) (tok.[0] = '1')
           end
           else if tok.[0] = 'x' || tok.[0] = 'X' || tok.[0] = 'z' || tok.[0] = 'Z' then
             fail line "unknown/high-impedance values are not supported"
           else if tok.[0] = 'b' || tok.[0] = 'B' || tok.[0] = 'r' || tok.[0] = 'R' then
             fail line "vector/real variables are not supported"
           else fail line "unexpected token %S" tok);
          loop ()
    in
    loop ();
    let signals =
      List.rev_map
        (fun id ->
          let v = Hashtbl.find vars id in
          {
            rd_name = v.v_name;
            rd_initial = (match v.v_init with Some b -> b | None -> false);
            rd_edges = List.rev v.v_rev_edges;
          })
        !order
    in
    Ok { timescale_ps = !timescale; signals }
  with Diag.Fail e -> Error e

let parse_file path = Diag.parse_file parse_string path

let find t name = List.find_opt (fun s -> s.rd_name = name) t.signals
