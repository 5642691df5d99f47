(* jedd-analyze: run the five interrelated whole-program analyses (§5,
   Figure 2) over a generated workload and report result sizes. *)

open Cmdliner
module Workload = Jedd_minijava.Workload
module Program = Jedd_minijava.Program
module Suite = Jedd_analyses.Suite
module Frontend = Jedd_minijava.Frontend

(* Bad input from the command line: one line naming it, exit 2. *)
let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("jedd-analyze: " ^ s);
      exit 2)
    fmt

let load_program benchmark file =
  if file <> "" then
    match Frontend.load_file file with
    | p -> (file, p)
    | exception Sys_error msg ->
      (* an open error names the path, a read error (a directory) not *)
      if String.starts_with ~prefix:file msg then fail "%s" msg
      else fail "%s: %s" file msg
    | exception Frontend.Parse_error (msg, line) ->
      if line > 0 then fail "%s:%d: %s" file line msg
      else fail "%s: %s" file msg
  else
    match Workload.find_profile benchmark with
    | Ok profile -> (profile.Workload.name, Workload.generate profile)
    | Error msg -> fail "%s" msg

let lint_suite p =
  (* lint each of the Figure 2 analyses as jeddc --lint would *)
  let worst = ref 0 in
  List.iter
    (fun (name, _) ->
      let compiled = Suite.compile_one p name in
      let report = Jedd_lint.Driver.lint compiled in
      Printf.printf "== %s ==\n%s\n" name (Jedd_lint.Driver.to_text report);
      worst := max !worst (Jedd_lint.Driver.exit_code report))
    Suite.analyses;
  exit !worst

(* Print the Table 1-style result-size summary shared by the run_all
   and run_combined paths. *)
let print_results (r : Suite.results) =
  Printf.printf "  Hierarchy            : %d subtype pairs\n"
    (List.length r.Suite.subtypes);
  Printf.printf "  Points-to Analysis   : %d (var, heap) pairs\n"
    (List.length r.Suite.pt);
  Printf.printf "  Virtual Call Resol.  : %d resolved targets\n"
    (List.length r.Suite.resolved);
  Printf.printf "  Call Graph           : %d reachable methods\n"
    (List.length r.Suite.reachable);
  Printf.printf "  Side-effect Analysis : %d (method, heap, field) triples\n"
    (List.length r.Suite.side_effects)

let run benchmark file verify node_limit lint save_snapshot serve =
  let name, p = load_program benchmark file in
  if lint then lint_suite p;
  Format.printf "workload %s: %a@." name Program.pp_stats p;
  let t0 = Unix.gettimeofday () in
  let needs_instance = save_snapshot <> None || serve <> None in
  let oom () =
    Printf.eprintf
      "jedd-analyze: analysis exceeded the in-core memory budget (%s \
       nodes); raise --node-limit.\n"
      (match node_limit with Some n -> string_of_int n | None -> "?");
    exit 3
  in
  let inst, r =
    (* snapshotting and serving need the live combined instance; the
       plain report path keeps the historical per-analysis universes *)
    try
      if needs_instance then
        let inst, r = Suite.run_combined ?node_limit p in
        (Some inst, r)
      else (None, Suite.run_all ?node_limit p)
    with Jedd_bdd.Manager.Out_of_nodes -> oom ()
  in
  Printf.printf "pipeline completed in %.2f s\n" (Unix.gettimeofday () -. t0);
  print_results r;
  let snap =
    Option.map
      (fun inst -> Suite.snapshot ~meta:[ ("workload", name) ] inst)
      inst
  in
  (match (save_snapshot, snap) with
  | Some path, Some snap ->
    (try Jedd_store.Snapshot.save_file path snap
     with Sys_error msg -> fail "%s" msg);
    Printf.printf "snapshot saved to %s (%d relations)\n" path
      (List.length snap.Jedd_store.Snapshot.relations)
  | _ -> ());
  (match (serve, snap) with
  | Some socket_path, Some snap ->
    (* jeddd's front end with one Unix listener and one worker over the
       live (unfrozen) universe; one generation, so no hash is needed
       to key the result cache *)
    let config =
      { Jedd_serve.Serve.default_config with unix_path = Some socket_path }
    in
    let server =
      try Jedd_serve.Serve.create ~config ~universe_hash:"" snap
      with Jedd_serve.Serve.Listen_error msg -> fail "%s" msg
    in
    Printf.printf "jeddd: serving %s on %s (send {\"verb\":\"shutdown\"} to stop)\n%!"
      name socket_path;
    Jedd_serve.Serve.run server
  | _ -> ());
  if verify then begin
    let mismatches = Suite.verify p r in
    Printf.printf "verification against reference implementations: %s\n"
      (if mismatches = [] then "PASS" else "FAIL");
    List.iter
      (fun (rel, n) ->
        Printf.printf "  %s: symmetric difference of %d tuples\n" rel n)
      mismatches;
    if mismatches <> [] then exit 1
  end

let benchmark_arg =
  Arg.(
    value
    & opt string "compress"
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Workload: tiny, javac, compress, javac-13, sablecc, jedit")

let file_arg =
  Arg.(
    value & opt string ""
    & info [ "f"; "file" ] ~docv:"FILE"
        ~doc:"Analyse a hand-written .mjava program instead of a workload")

let verify_arg =
  Arg.(value & flag & info [ "verify" ] ~doc:"Check against reference analyses")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"N"
        ~doc:
          "Cap each in-core BDD node table at N nodes; exceeding the cap \
           aborts the pipeline with a one-line message (exit 3)")

let lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:
          "Run the jeddlint checkers over each of the five analyses instead \
           of executing them; exits with the worst per-analysis lint code")

let save_snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save-snapshot" ] ~docv:"FILE"
        ~doc:
          "After the pipeline completes, persist the combined analysis \
           universe (checksummed binary snapshot) to FILE; jeddd can \
           warm-start from it without recomputing")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCKET"
        ~doc:
          "After the pipeline completes, serve the results over a Unix \
           socket speaking the jeddd line/JSON protocol (query with jeddq)")

let cmd =
  Cmd.v
    (Cmd.info "jedd-analyze" ~version:Jedd_relation.Version.banner
       ~doc:"Run the five BDD-based whole-program analyses of Figure 2")
    Term.(
      const run $ benchmark_arg $ file_arg $ verify_arg $ node_limit_arg
      $ lint_arg $ save_snapshot_arg $ serve_arg)

let () = exit (Cmd.eval cmd)
