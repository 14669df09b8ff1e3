let reader path =
  if Filename.check_suffix path ".bench" then
    let name = Filename.remove_extension (Filename.basename path) in
    ("iscas:" ^ name, Iscas.parse_string ~name)
  else ("hnl:", Hnl.parse_string)

let parse_file path = Halotis_util.Diag.parse_file (snd (reader path)) path
