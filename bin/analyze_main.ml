(* jedd-analyze: run the five interrelated whole-program analyses (§5,
   Figure 2) over a generated workload and report result sizes. *)

open Cmdliner
module Workload = Jedd_minijava.Workload
module Program = Jedd_minijava.Program
module Suite = Jedd_analyses.Suite

let resolve_backend flag =
  try Jedd_relation.Universe.resolve_backend flag
  with Invalid_argument msg ->
    Printf.eprintf "jedd-analyze: %s\n" msg;
    exit 2

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

let run benchmark file verify reorder backend node_limit lint save_snapshot
    serve optimize =
  let name, p =
    if file <> "" then (file, Jedd_minijava.Frontend.load_file file)
    else
      let profile =
        if benchmark = "tiny" then Workload.tiny
        else Workload.profile_named benchmark
      in
      (profile.Workload.name, Workload.generate profile)
  in
  if lint then lint_suite p;
  let backend = resolve_backend backend in
  if save_snapshot <> None && not (Jedd_relation.Backend.levelizes backend)
  then begin
    Printf.eprintf
      "jedd-analyze: the %s backend has no levelized snapshot format; drop \
       --save-snapshot or use another backend\n"
      (Jedd_relation.Backend.kind_name backend);
    exit 2
  end;
  (match backend with
  | `Extmem -> Format.printf "backend: extmem (out-of-core streaming)@."
  | `Hybrid ->
    Format.printf
      "backend: hybrid (per-operation incore/extmem dispatch from predicted \
       node counts)@."
  | `Mtbdd ->
    Format.printf
      "backend: mtbdd (terminal-valued BDDs; boolean analyses run as \
       0/1-weighted relations)@."
  | `Incore -> ());
  Format.printf "workload %s: %a@." name Program.pp_stats p;
  let t0 = Unix.gettimeofday () in
  let needs_instance = save_snapshot <> None || serve <> None in
  let oom () =
    Printf.eprintf
      "jedd-analyze: analysis exceeded the in-core memory budget (%s \
       nodes); retry with --backend=extmem to stream BDDs through \
       bounded memory, or raise --node-limit.\n"
      (match node_limit with Some n -> string_of_int n | None -> "?");
    exit 3
  in
  let inst, r =
    (* snapshotting and serving need the live combined instance; the
       plain report path keeps the historical per-analysis universes *)
    try
      if needs_instance then
        let inst, r =
          Suite.run_combined ~backend ?node_limit ~reorder ~optimize p
        in
        (Some inst, r)
      else (None, Suite.run_all ~backend ?node_limit ~reorder ~optimize p)
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
    Jedd_store.Snapshot.save_file path snap;
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
    let server = Jedd_serve.Serve.create ~config ~universe_hash:"" snap in
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

let reorder_arg =
  Arg.(
    value & flag
    & info [ "reorder" ]
        ~doc:
          "Enable dynamic variable-order optimization: a sifting pass over \
           the loaded facts plus an auto trigger at BDD safe points during \
           the points-to and call-graph solves")

let backend_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "backend" ] ~docv:"NAME"
        ~doc:
          "Relation backend: $(b,incore) (default; hash-consed shared node \
           table), $(b,extmem) (out-of-core streaming BDDs: levelized \
           node files + priority-queue sweeps under the \
           JEDD_EXTMEM_PQ_BYTES / JEDD_EXTMEM_MEM_NODES byte budgets), \
           $(b,hybrid) (per-operation incore/extmem dispatch from \
           predicted node counts), or $(b,mtbdd) (terminal-valued BDDs: \
           boolean analyses run unchanged as 0/1-weighted relations and \
           support counting projections).  Falls back to the JEDD_BACKEND \
           environment variable.")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"N"
        ~doc:
          "Cap each in-core BDD node table at N nodes; exceeding the cap \
           aborts the pipeline with a clean message suggesting \
           --backend=extmem")

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
           universe (checksummed binary snapshot; every backend but \
           mtbdd) to FILE; jeddd can warm-start from it without \
           recomputing")

let serve_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "serve" ] ~docv:"SOCKET"
        ~doc:
          "After the pipeline completes, serve the results over a Unix \
           socket speaking the jeddd line/JSON protocol (query with jeddq)")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize-domains" ]
        ~doc:
          "Solve each physical-domain assignment with the weighted \
           objective: the static cost analysis weights every candidate \
           replace site by loop nesting and call-graph frequency, and the \
           SAT solve minimises the summed weight of the copies it keeps.  \
           Results are bit-identical; dynamic replace executions drop.")

let cmd =
  Cmd.v
    (Cmd.info "jedd-analyze" ~version:Jedd_relation.Version.banner
       ~doc:"Run the five BDD-based whole-program analyses of Figure 2")
    Term.(
      const run $ benchmark_arg $ file_arg $ verify_arg $ reorder_arg
      $ backend_arg $ node_limit_arg $ lint_arg $ save_snapshot_arg
      $ serve_arg $ optimize_arg)

let () = exit (Cmd.eval cmd)
