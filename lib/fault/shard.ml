module Diag = Halotis_guard.Diag

(* Core-count autodetection for [--jobs 0].  [getconf] is POSIX and
   respects the process's scheduling restrictions on glibc; [sysctl]
   covers the BSDs and macOS, and the /proc/cpuinfo scan is the last
   resort for stripped-down Linux containers.  Never raises — an
   undetectable count degrades to serial.  The parsing is split from
   the process/file plumbing so tests can stub the readers. *)

let parse_core_count line =
  match int_of_string_opt (String.trim line) with
  | Some n when n >= 1 -> Some n
  | _ -> None

let count_cpuinfo_processors contents =
  let n = ref 0 in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         if String.length line >= 9 && String.sub line 0 9 = "processor" then incr n);
  if !n > 0 then Some !n else None

let read_command_line cmd =
  try
    let ic = Unix.open_process_in cmd in
    let line = try Some (input_line ic) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some l -> Some l
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

let read_file_contents path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

let detect_cores ?(getconf = fun () -> read_command_line "getconf _NPROCESSORS_ONLN 2>/dev/null")
    ?(sysctl = fun () -> read_command_line "sysctl -n hw.ncpu 2>/dev/null")
    ?(cpuinfo = fun () -> read_file_contents "/proc/cpuinfo") () =
  match Option.bind (getconf ()) parse_core_count with
  | Some n -> n
  | None -> (
      match Option.bind (sysctl ()) parse_core_count with
      | Some n -> n
      | None -> (
          match Option.bind (cpuinfo ()) count_cpuinfo_processors with
          | Some n -> n
          | None -> 1))

let available_cores () = detect_cores ()

let journal_path base k = Printf.sprintf "%s.%d" base k
let stderr_path base k = Printf.sprintf "%s.%d.err" base k

type worker = {
  wk_index : int;
  wk_range : int * int;
  wk_journal : string;
  wk_pid : int;
}

let spawn ?stderr_file ~argv ~index ~range ~journal () =
  let err_fd, close_err =
    match stderr_file with
    | None -> (Unix.stderr, fun () -> ())
    | Some path ->
        let fd =
          Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        (fd, fun () -> Unix.close fd)
  in
  let pid =
    Fun.protect ~finally:close_err (fun () ->
        Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
          Unix.stdout err_fd)
  in
  { wk_index = index; wk_range = range; wk_journal = journal; wk_pid = pid }

(* The last few stderr lines of a dead worker, for replay into the
   supervisor's diagnostic.  Best effort: a missing or empty capture
   file yields []. *)
let stderr_tail ?(lines = 5) path =
  match read_file_contents path with
  | None -> []
  | Some contents ->
      let all =
        String.split_on_char '\n' contents
        |> List.filter (fun l -> String.trim l <> "")
      in
      let n = List.length all in
      List.filteri (fun i _ -> i >= n - lines) all

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
