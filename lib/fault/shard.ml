module Diag = Halotis_util.Diag

let available_cores = Domain.recommended_domain_count

let journal_path base k = Printf.sprintf "%s.%d" base k
let stderr_path base k = Printf.sprintf "%s.%d.err" base k

let spawn ~stderr_file argv =
  let err_fd = Unix.openfile stderr_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close err_fd)
    (fun () ->
      Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin Unix.stdout
        err_fd)

let chunk_files base =
  let dir = Filename.dirname base and prefix = Filename.basename base ^ "." in
  let plen = String.length prefix in
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  List.filter_map
    (fun f ->
      if not (String.starts_with ~prefix f) then None
      else
        let rest = String.sub f plen (String.length f - plen) in
        let id, suffix =
          match String.index_opt rest '.' with
          | Some i -> (String.sub rest 0 i, String.sub rest i (String.length rest - i))
          | None -> (rest, "")
        in
        match int_of_string_opt id with
        | Some id when id >= 0 && List.mem suffix [ ""; ".err"; ".chaos"; ".cursor" ] ->
            Some (id, Filename.concat dir f, suffix)
        | _ -> None)
    (Array.to_list files)

(* The last few stderr lines of a dead worker, for replay into the
   supervisor's diagnostic.  Best effort: a missing or empty capture
   file yields []. *)
let stderr_tail path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> []
  | contents ->
      let all =
        String.split_on_char '\n' contents
        |> List.filter (fun l -> String.trim l <> "")
      in
      let n = List.length all in
      List.filteri (fun i _ -> i >= n - 5) all

let status_to_string = function
  | Unix.WEXITED n -> Printf.sprintf "exit %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
  | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s

let load_merged ~base ~jobs =
  let parts =
    List.filter_map
      (fun k ->
        let path = journal_path base k in
        if Sys.file_exists path then Some (Journal.load path) else None)
      (List.init jobs (fun k -> k))
  in
  if parts = [] then
    Diag.fail ~code:"journal-merge"
      (Printf.sprintf "no shard journal found at %s.0 .. %s.%d" base base (jobs - 1));
  Journal.merge parts
