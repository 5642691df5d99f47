(* Scratch space inside the directory the benchmark runs from:
   .jbench/run-<pid> for this run's files (removed at exit), and .jbench
   itself for the trace files a traced run leaves behind. *)

let root = ".jbench"

let mkdir d = try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let rec remove path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let dir =
  lazy
    (mkdir root;
     let d = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
     mkdir d;
     at_exit (fun () -> remove d);
     d)

let get () = Lazy.force dir

let trace_file ~workload ~seed =
  mkdir root;
  Filename.concat root (Printf.sprintf "trace-%s-seed%d.json" workload seed)
