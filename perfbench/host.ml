(* Host fingerprint stamped on every result: no performance number
   without the machine, toolchain and code it was measured on. *)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* /proc files report length 0, so read them line by line. *)
let read_lines path =
  try
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc
        in
        go [])
  with Sys_error _ -> []

let cpu_model () =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.trim (String.sub l 0 i) = "model name" ->
        Some (String.trim (String.sub l (i + 1) (String.length l - i - 1)))
      | _ -> None)
    (read_lines "/proc/cpuinfo")
  |> Option.value ~default:"unknown"

let loadavg () =
  match read_lines "/proc/loadavg" with
  | l :: _ -> (
    match String.split_on_char ' ' l with a :: b :: c :: _ -> String.concat " " [ a; b; c ] | _ -> l)
  | [] -> "unknown"

(* The checked-out commit when run from a git work tree, read without
   spawning git. Benchmark checkouts are often plain file trees, which
   is why [source_digest] exists. *)
let git_commit () =
  let trim s = String.trim s in
  match read_file ".git/HEAD" with
  | None -> None
  | Some head -> (
    let head = trim head in
    match String.length head > 5 && String.sub head 0 5 = "ref: " with
    | false -> Some head
    | true -> (
      let r = String.sub head 5 (String.length head - 5) in
      match read_file (Filename.concat ".git" r) with
      | Some h -> Some (trim h)
      | None ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ h; name ] when name = r -> Some h
            | _ -> None)
          (read_lines ".git/packed-refs")))

(* MD5 over every source file of the program under test (path and
   contents, in sorted order): identifies the code even where there is
   no git metadata. *)
let source_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | entries ->
      Array.sort compare entries;
      List.concat_map
        (fun e ->
          let p = Filename.concat dir e in
          if Sys.is_directory p then walk p
          else if
            Filename.check_suffix e ".ml" || Filename.check_suffix e ".mli" || e = "dune"
          then [ p ]
          else [])
        (Array.to_list entries)
  in
  let files = List.concat_map walk [ "lib"; "bin" ] in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string b p;
      Buffer.add_char b '\000';
      Buffer.add_string b (Digest.to_hex (Digest.file p));
      Buffer.add_char b '\n')
    files;
  (List.length files, Digest.to_hex (Digest.string (Buffer.contents b)))

let fingerprint () =
  let module J = Impact_svc.Json in
  let nfiles, digest = source_digest () in
  J.to_string
    (J.Obj
       [
         ("nproc", J.Int (Domain.recommended_domain_count ()));
         ("cpu_model", J.Str (cpu_model ()));
         ("ocaml", J.Str Sys.ocaml_version);
         ("commit", match git_commit () with Some c -> J.Str c | None -> J.Null);
         ("source_md5", J.Str digest);
         ("source_files", J.Int nfiles);
         ("loadavg", J.Str (loadavg ()));
       ])
