(* `dune runtest` runs the tests with cwd = _build/default/test (deps
   copied in); `dune exec test/test_main.exe` runs them from the project
   root, where the fixtures sit in the source tree and the binaries
   under _build/default.  [path p] resolves a path written for the first
   against both. *)
let path p =
  if Sys.file_exists p then p
  else
    let from_root =
      if String.starts_with ~prefix:"../" p then
        String.sub p 3 (String.length p - 3)
      else Filename.concat "test" p
    in
    match
      List.find_opt Sys.file_exists
        [ from_root; Filename.concat "_build/default" from_root ]
    with
    | Some q -> q
    | None -> p
