module Json = Halotis_util.Json

type severity = Error | Warning | Info

let severity_to_string = function Error -> "error" | Warning -> "warning" | Info -> "info"

let severity_of_string = function
  | "error" -> Some Error
  | "warning" -> Some Warning
  | "info" -> Some Info
  | _ -> None

let severity_rank = function Error -> 2 | Warning -> 1 | Info -> 0

type domain = Netlist | Tech | Liberty | Stim

let domain_to_string = function
  | Netlist -> "netlist"
  | Tech -> "tech"
  | Liberty -> "liberty"
  | Stim -> "stim"

type location =
  | Circuit
  | Signal of string
  | Gate of string
  | Gates of string list
  | Pin of string * int
  | Kind of string
  | Cell of string
  | Entry of string

let location_strings = function
  | Circuit -> ("circuit", "")
  | Signal s -> ("signal", s)
  | Gate g -> ("gate", g)
  | Gates gs -> ("gates", String.concat " -> " gs)
  | Pin (g, pin) -> ("pin", Printf.sprintf "%s.%d" g pin)
  | Kind k -> ("kind", k)
  | Cell ce -> ("cell", ce)
  | Entry e -> ("entry", e)

type t = {
  rule : string;
  severity : severity;
  domain : domain;
  location : location;
  message : string;
}

let pp fmt f =
  let kind, name = location_strings f.location in
  if name = "" then
    Format.fprintf fmt "%s %s: %s" (severity_to_string f.severity) f.rule f.message
  else
    Format.fprintf fmt "%s %s [%s %s]: %s" (severity_to_string f.severity) f.rule kind
      name f.message

let compare a b =
  match Int.compare (severity_rank b.severity) (severity_rank a.severity) with
  | 0 -> (
      match String.compare a.rule b.rule with
      | 0 -> String.compare a.message b.message
      | c -> c)
  | c -> c

let to_json f =
  let kind, name = location_strings f.location in
  Json.Obj
    [
      ("rule", Json.Str f.rule);
      ("severity", Json.Str (severity_to_string f.severity));
      ("domain", Json.Str (domain_to_string f.domain));
      ("location", Json.Obj [ ("kind", Json.Str kind); ("name", Json.Str name) ]);
      ("message", Json.Str f.message);
    ]

let edge_name rising = if rising then "rising" else "falling"
