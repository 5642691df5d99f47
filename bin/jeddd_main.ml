(* jeddd: the persistent analysis daemon.

   Obtains an analysis snapshot — warm from a snapshot file or the
   content-addressed store, or cold by running the combined Figure 2
   pipeline — freezes the universe into a read-only arena (unless
   --no-freeze), then serves concurrent queries in the jeddd line/JSON
   protocol (see lib/server/protocol.ml) over any combination of a
   Unix socket, a TCP port (--tcp) and an HTTP/1.1 port (--http),
   with --workers query domains sharing the frozen node store.  The
   whole point: the fixed-point computation happens at most once,
   queries thereafter are BDD lookups. *)

open Cmdliner
module Workload = Jedd_minijava.Workload
module Suite = Jedd_analyses.Suite
module Snapshot = Jedd_store.Snapshot
module Cas = Jedd_store.Cas

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let program_of benchmark =
  match Workload.find_profile benchmark with
  | Ok profile -> Workload.generate profile
  | Error msg -> fail "jeddd: %s" msg

(* Returns the snapshot plus its universe hash (the MD5 of the snapshot
   bytes) — the cache key component that makes result-cache entries
   snapshot-specific.  [freeze_at_load] lands a warm load directly in
   frozen mode; it is requested only when no --save/--tag follows
   (those re-serialize, which is cleaner before the final compaction). *)
let load_or_compute ~snapshot_file ~store_dir ~store_name ~benchmark
    ~node_limit ~save ~tag ~freeze_at_load =
  let t0 = Unix.gettimeofday () in
  let snap, origin, hash =
    match (snapshot_file, store_dir, store_name) with
    | Some file, _, _ ->
      (* digest first, so an unreadable file is reported as such, not as
         a corrupt snapshot; an open error names the path, a read error
         (a directory) not *)
      let hash =
        try Digest.to_hex (Digest.file file)
        with Sys_error msg when not (String.starts_with ~prefix:file msg) ->
          fail "jeddd: %s: %s" file msg
      in
      ( Snapshot.load_file ~freeze:freeze_at_load file,
        Printf.sprintf "snapshot %s" file,
        hash )
    | None, Some dir, Some name ->
      let cas = Cas.open_ dir in
      if Cas.resolve cas name = None then
        fail "jeddd: %S does not name a snapshot in store %s" name dir;
      (* the ref may point at a differential snapshot: replay the chain *)
      let data = Jedd_store.Delta.load_chain cas name in
      ( Snapshot.of_bytes ~freeze:freeze_at_load data,
        Printf.sprintf "store %s/%s" dir name,
        Digest.to_hex (Digest.string data) )
    | None, Some _, None -> fail "jeddd: --store needs --name"
    | None, None, Some _ -> fail "jeddd: --name needs --store"
    | None, None, None ->
      let inst, _ = Suite.run_combined ?node_limit (program_of benchmark) in
      let snap = Suite.snapshot ~meta:[ ("workload", benchmark) ] inst in
      ( snap,
        Printf.sprintf "cold run of %s" benchmark,
        Digest.to_hex (Digest.string (Snapshot.to_bytes snap)) )
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  Printf.printf "jeddd: ready from %s in %.3f s (%d relations)\n%!" origin
    elapsed (List.length snap.Snapshot.relations);
  (match save with
  | Some path ->
    Snapshot.save_file path snap;
    Printf.printf "jeddd: saved snapshot to %s\n%!" path
  | None -> ());
  (match (tag, store_dir) with
  | Some name, Some dir ->
    let cas = Cas.open_ dir in
    let digest = Cas.put cas (Snapshot.to_bytes snap) in
    Cas.tag cas name digest;
    Printf.printf "jeddd: stored as %s (ref %s)\n%!" digest name
  | Some _, None -> fail "jeddd: --tag needs --store"
  | None, _ -> ());
  (snap, hash)

let parse_hostport ~what ~default_host s =
  match String.rindex_opt s ':' with
  | None -> (
    match int_of_string_opt s with
    | Some p when p >= 0 && p < 65536 -> (default_host, p)
    | _ -> fail "jeddd: %s must be HOST:PORT or PORT, got %S" what s)
  | Some i -> (
    let host = String.sub s 0 i in
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt port with
    | Some p when p >= 0 && p < 65536 ->
      ((if host = "" then default_host else host), p)
    | _ -> fail "jeddd: %s has a bad port in %S" what s)

(* --live: run the combined analysis cold through a Live session (the
   mutable shadow universe), then serve a frozen copy of it.  The
   daemon then accepts the "update" verb: each edit is re-solved
   incrementally on the shadow and swapped in as a new frozen
   generation; with --store/--tag, each generation is published under
   the ref as a differential snapshot. *)
let make_live ~benchmark ~want_freeze ~save ~tag ~store_dir =
  let p = program_of benchmark in
  let t0 = Unix.gettimeofday () in
  let session = Jedd_analyses.Live.create p in
  let snap_live =
    Suite.snapshot
      ~meta:[ ("workload", benchmark); ("jedd.generation", "0") ]
      (Jedd_analyses.Live.inst session)
  in
  let bytes = Snapshot.to_bytes snap_live in
  let hash = Digest.to_hex (Digest.string bytes) in
  Printf.printf "jeddd: live session ready from cold run of %s in %.3f s\n%!"
    benchmark
    (Unix.gettimeofday () -. t0);
  (match save with
  | Some path ->
    let oc = open_out_bin path in
    output_string oc bytes;
    close_out oc;
    Printf.printf "jeddd: saved snapshot to %s\n%!" path
  | None -> ());
  let publish =
    match (tag, store_dir) with
    | Some name, Some dir ->
      let cas = Cas.open_ dir in
      let digest = Cas.put cas bytes in
      Cas.tag cas name digest;
      Printf.printf "jeddd: stored as %s (ref %s)\n%!" digest name;
      Some (cas, name)
    | Some _, None -> fail "jeddd: --tag needs --store"
    | None, _ -> None
  in
  let snap = Snapshot.of_bytes ~freeze:want_freeze bytes in
  ( Some { Jedd_serve.Serve.session; initial_bytes = bytes; publish },
    (snap, hash) )

let run socket no_socket tcp http workers no_freeze sweep_threshold
    cache_capacity snapshot_file store_dir store_name benchmark node_limit save
    tag live =
  if workers < 1 then fail "jeddd: --workers must be >= 1";
  let want_freeze = not no_freeze in
  let workers =
    if workers > 1 && not want_freeze then begin
      Printf.eprintf
        "jeddd: multi-worker serving needs a frozen universe; falling back \
         to --workers 1\n%!";
      1
    end
    else workers
  in
  let freeze_at_load = want_freeze && save = None && tag = None in
  if live && (snapshot_file <> None || store_name <> None) then
    fail
      "jeddd: --live re-solves edits, so it needs the program and always \
       runs a cold analysis; drop --snapshot/--name";
  let live_cfg, (snap, universe_hash) =
    try
      if live then make_live ~benchmark ~want_freeze ~save ~tag ~store_dir
      else
        ( None,
          load_or_compute ~snapshot_file ~store_dir ~store_name ~benchmark
            ~node_limit ~save ~tag ~freeze_at_load )
    with
    | Snapshot.Corrupt msg -> fail "jeddd: corrupt snapshot: %s" msg
    | Cas.Corrupt_object msg -> fail "jeddd: %s" msg
    | Sys_error msg -> fail "jeddd: %s" msg
  in
  if want_freeze && not (Jedd_relation.Universe.frozen snap.Snapshot.u) then
    Jedd_relation.Universe.freeze snap.Snapshot.u;
  if Jedd_relation.Universe.frozen snap.Snapshot.u then
    Printf.printf "jeddd: universe frozen (%d nodes pinned, hash %s)\n%!"
      (Jedd_bdd.Manager.frozen_live_nodes
         (Jedd_relation.Universe.manager snap.Snapshot.u))
      universe_hash;
  let config =
    {
      Jedd_serve.Serve.unix_path = (if no_socket then None else Some socket);
      tcp =
        Option.map (parse_hostport ~what:"--tcp" ~default_host:"0.0.0.0") tcp;
      http =
        Option.map (parse_hostport ~what:"--http" ~default_host:"0.0.0.0") http;
      workers;
      default_timeout_ms = 30_000;
      cache_capacity;
      sweep_threshold;
    }
  in
  let server =
    Jedd_serve.Serve.create ~config ?live:live_cfg ~universe_hash snap
  in
  List.iter print_string
    (List.concat
       [
         (if no_socket then [] else [ Printf.sprintf "jeddd: listening on %s\n" socket ]);
         (match config.tcp with
         | Some (h, _) ->
           [ Printf.sprintf "jeddd: listening on tcp %s:%d\n" h
               (Option.value ~default:0 (Jedd_serve.Serve.tcp_port server)) ]
         | None -> []);
         (match config.http with
         | Some (h, _) ->
           [ Printf.sprintf "jeddd: listening on http %s:%d\n" h
               (Option.value ~default:0 (Jedd_serve.Serve.http_port server)) ]
         | None -> []);
       ]);
  Printf.printf
    "jeddd: %d worker%s (send {\"verb\":\"shutdown\"} to stop)\n%!" workers
    (if workers = 1 then "" else "s");
  if live then
    Printf.printf
      "jeddd: live updates enabled (send {\"verb\":\"update\", \
       \"edit\":{\"op\":...}})\n%!";
  Jedd_serve.Serve.run server;
  Printf.printf "jeddd: stopped\n%!"

let socket_arg =
  Arg.(
    value & opt string "jeddd.sock"
    & info [ "s"; "socket" ] ~docv:"PATH" ~doc:"Unix socket path to listen on")

let no_socket_arg =
  Arg.(
    value & flag
    & info [ "no-socket" ]
        ~doc:"Do not listen on the Unix socket (TCP/HTTP only)")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "Also serve the line/JSON protocol on a TCP port (PORT alone \
           binds 0.0.0.0; port 0 picks a free port)")

let http_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "http" ] ~docv:"HOST:PORT"
        ~doc:
          "Also serve HTTP/1.1 (POST /query with a protocol request body, \
           GET /ping, GET /stats)")

let workers_arg =
  Arg.(
    value & opt int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Query worker domains sharing the frozen universe (ignored with \
           --no-freeze)")

let no_freeze_arg =
  Arg.(
    value & flag
    & info [ "no-freeze" ]
        ~doc:
          "Keep the universe mutable (refcounted GC, reorder verb enabled); \
           forces --workers 1")

let sweep_threshold_arg =
  Arg.(
    value
    & opt int (1 lsl 20)
    & info [ "sweep-threshold" ] ~docv:"NODES"
        ~doc:
          "Frozen mode: reclaim query scratch once this many nodes \
           accumulate beyond the pinned arena (0 disables sweeping)")

let cache_capacity_arg =
  Arg.(
    value & opt int 4096
    & info [ "cache-capacity" ] ~docv:"N"
        ~doc:"Result-cache entries across all relations (0 disables)")

let snapshot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot" ] ~docv:"FILE"
        ~doc:"Warm-start from a snapshot file written by --save or \
              jedd-analyze --save-snapshot")

let store_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "store" ] ~docv:"DIR"
        ~doc:"Content-addressed snapshot store (with --name to load, \
              --tag to publish)")

let name_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "name" ] ~docv:"REF"
        ~doc:"Ref name, digest, or unique digest prefix to load from --store")

let benchmark_arg =
  Arg.(
    value & opt string "compress"
    & info [ "b"; "benchmark" ] ~docv:"NAME"
        ~doc:"Workload for a cold run when no snapshot source is given")

let node_limit_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "node-limit" ] ~docv:"N" ~doc:"In-core BDD node-table cap")

let save_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "save" ] ~docv:"FILE"
        ~doc:"Also write the (loaded or computed) snapshot to FILE")

let tag_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tag" ] ~docv:"REF"
        ~doc:"Also publish the snapshot into --store under this ref name")

let live_arg =
  Arg.(
    value & flag
    & info [ "live" ]
        ~doc:
          "Keep a mutable shadow of the analysis and accept the \
           $(b,update) verb: program edits are re-solved incrementally \
           and swapped in as new frozen generations without restarting. \
           Implies a cold analysis run of --benchmark; with --store and --tag, every generation is published under \
           the ref, as a differential snapshot when smaller.")

let cmd =
  Cmd.v
    (Cmd.info "jeddd" ~version:Jedd_relation.Version.banner
       ~doc:
         "Persistent relation store daemon: load or compute an analysis \
          snapshot once, freeze it read-only, answer concurrent queries \
          over Unix socket, TCP and HTTP with a pool of worker domains")
    Term.(
      const run $ socket_arg $ no_socket_arg $ tcp_arg $ http_arg
      $ workers_arg $ no_freeze_arg $ sweep_threshold_arg $ cache_capacity_arg
      $ snapshot_arg $ store_arg $ name_arg $ benchmark_arg $ node_limit_arg
      $ save_arg $ tag_arg $ live_arg)

let () = exit (Cmd.eval cmd)
