(* A content-addressed snapshot store on the local filesystem:

     <root>/objects/<md5-hex>.snap   immutable snapshot blobs
     <root>/refs/<name>              mutable names -> hex digests

   Objects are keyed by the MD5 of their full file contents, so
   identical snapshots dedupe to one blob and a name update is a
   one-line ref write.  All writes go through a temp file + rename in
   the same directory, so a crashed writer can never leave a partial
   object or ref behind.  Only writes create directories: reading a
   store that does not exist finds nothing and leaves no trace. *)

type t = { root : string }

exception Corrupt_object of string

let ( / ) = Filename.concat

let ensure_dir d =
  if not (Sys.file_exists d) then Unix.mkdir d 0o755
  else if not (Sys.is_directory d) then
    invalid_arg (Printf.sprintf "Cas: %s exists and is not a directory" d)

let open_ root = { root }

(* The entries of a store subdirectory; a missing one is empty. *)
let list_dir t sub =
  let d = t.root / sub in
  if Sys.file_exists d then Array.to_list (Sys.readdir d) else []

let ensure_subdir t sub =
  ensure_dir t.root;
  ensure_dir (t.root / sub)

let object_path t hex = t.root / "objects" / (hex ^ ".snap")
let ref_path t name = t.root / "refs" / name

let valid_name name =
  name <> ""
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '-' || c = '_' || c = '.')
       name

let check_name name =
  if not (valid_name name) then
    invalid_arg (Printf.sprintf "Cas: invalid ref name %S" name)

let atomic_write path data =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".cas" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

let put t data =
  let hex = Digest.to_hex (Digest.string data) in
  let path = object_path t hex in
  if not (Sys.file_exists path) then begin
    ensure_subdir t "objects";
    atomic_write path data
  end;
  hex

let tag t name hex =
  check_name name;
  ensure_subdir t "refs";
  atomic_write (ref_path t name) (hex ^ "\n")

let read_ref t name =
  check_name name;
  let path = ref_path t name in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    let line = try input_line ic with End_of_file -> "" in
    close_in ic;
    Some (String.trim line)
  end

let objects t =
  list_dir t "objects"
  |> List.filter_map (fun f -> Filename.chop_suffix_opt ~suffix:".snap" f)
  |> List.sort compare

let refs t =
  list_dir t "refs" |> List.sort compare
  |> List.filter_map (fun name ->
         Option.map (fun hex -> (name, hex)) (read_ref t name))

(* [resolve] accepts a ref name, a full hex digest, or an unambiguous
   digest prefix (>= 4 chars), and returns the object path. *)
let resolve t key =
  let by_ref =
    if valid_name key then
      Option.bind (read_ref t key) (fun hex ->
          if Sys.file_exists (object_path t hex) then Some (object_path t hex)
          else None)
    else None
  in
  match by_ref with
  | Some p -> Some p
  | None ->
    if String.length key >= 4 then begin
      let matches =
        List.filter
          (fun hex -> String.starts_with ~prefix:key hex)
          (objects t)
      in
      match matches with [ hex ] -> Some (object_path t hex) | _ -> None
    end
    else None

let get t key =
  match resolve t key with
  | None -> None
  | Some path ->
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let data = really_input_string ic n in
    close_in ic;
    (* Objects are named by their content digest; a mismatch means the
       blob was damaged on disk and must not be served. *)
    (match Filename.chop_suffix_opt ~suffix:".snap" (Filename.basename path) with
    | Some expected ->
      let found = Digest.to_hex (Digest.string data) in
      if found <> expected then
        raise
          (Corrupt_object
             (Printf.sprintf
                "Cas: object %s is damaged: name says digest %s, contents \
                 hash to %s"
                path expected found))
    | None -> ());
    Some data
