(* Tests for the async serving front end (lib/serve): HTTP/1.1 framing
   edge cases against the parser directly, then end-to-end checks over
   real sockets — the three transports answer bit-identically, frozen
   or not, a frozen universe rejects mutation cleanly, the worker
   sweeps query scratch without changing answers, the result cache
   warms up, and pipelined HTTP requests come back in order. *)

module Json = Jedd_server.Json
module Client = Jedd_server.Client
module Serve = Jedd_serve.Serve
module Http = Jedd_serve.Http
module Snapshot = Jedd_store.Snapshot
module Suite = Jedd_analyses.Suite
module Live = Jedd_analyses.Live
module Workload = Jedd_minijava.Workload
module Manager = Jedd_bdd.Manager
module Universe = Jedd_relation.Universe
module Physdom = Jedd_relation.Physdom

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- HTTP framing (no socket) -------------------------------------------- *)

let post body =
  Printf.sprintf
    "POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s"
    (String.length body) body

let test_http_parse () =
  (match Http.parse_request (post "{\"verb\":\"ping\"}") with
  | Http.Complete (r, consumed) ->
    check Alcotest.string "method" "POST" r.Http.meth;
    check Alcotest.string "path" "/query" r.Http.path;
    check Alcotest.string "body" "{\"verb\":\"ping\"}" r.Http.body;
    checkb "1.1 defaults to keep-alive" true r.Http.keep_alive;
    checki "whole request consumed" (String.length (post "{\"verb\":\"ping\"}"))
      consumed
  | _ -> Alcotest.fail "complete request did not parse");
  (* header values are trimmed, names lowercased *)
  (match
     Http.parse_request "GET /ping HTTP/1.1\r\nX-Weird:   spaced \r\n\r\n"
   with
  | Http.Complete (r, _) ->
    check
      Alcotest.(option string)
      "header access" (Some "spaced") (Http.header r "x-weird")
  | _ -> Alcotest.fail "GET did not parse");
  (* explicit Connection handling, and the 1.0 default *)
  (match Http.parse_request (post "x" ^ "") with
  | Http.Complete (r, _) -> checkb "keep-alive" true r.Http.keep_alive
  | _ -> Alcotest.fail "parse");
  (match
     Http.parse_request
       "POST / HTTP/1.1\r\nConnection: close\r\nContent-Length: 0\r\n\r\n"
   with
  | Http.Complete (r, _) -> checkb "close honoured" false r.Http.keep_alive
  | _ -> Alcotest.fail "parse");
  (match Http.parse_request "GET / HTTP/1.0\r\n\r\n" with
  | Http.Complete (r, _) -> checkb "1.0 defaults to close" false r.Http.keep_alive
  | _ -> Alcotest.fail "parse")

let test_http_partial_and_pipelined () =
  let full = post "{\"verb\":\"ping\"}" in
  (* every proper prefix is Incomplete, never Invalid and never a
     short Complete *)
  for n = 0 to String.length full - 1 do
    match Http.parse_request (String.sub full 0 n) with
    | Http.Incomplete -> ()
    | Http.Complete _ -> Alcotest.failf "prefix %d parsed as complete" n
    | Http.Invalid m -> Alcotest.failf "prefix %d invalid: %s" n m
  done;
  (* two pipelined requests: the first parse consumes exactly the
     first request, the remainder parses as the second *)
  let second = post "{\"verb\":\"version\"}" in
  let data = full ^ second in
  match Http.parse_request data with
  | Http.Complete (r1, consumed) ->
    check Alcotest.string "first body" "{\"verb\":\"ping\"}" r1.Http.body;
    let rest = String.sub data consumed (String.length data - consumed) in
    (match Http.parse_request rest with
    | Http.Complete (r2, consumed2) ->
      check Alcotest.string "second body" "{\"verb\":\"version\"}" r2.Http.body;
      checki "nothing left over" (String.length rest) consumed2
    | _ -> Alcotest.fail "second pipelined request did not parse")
  | _ -> Alcotest.fail "first pipelined request did not parse"

let test_http_rejects () =
  let invalid s =
    match Http.parse_request s with
    | Http.Invalid _ -> ()
    | Http.Complete _ -> Alcotest.failf "accepted %S" s
    | Http.Incomplete -> Alcotest.failf "%S treated as incomplete" s
  in
  invalid "NONSENSE\r\n\r\n";
  invalid "GET / HTTP/2.0\r\n\r\n";
  invalid "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n";
  invalid "POST / HTTP/1.1\r\nContent-Length: -5\r\n\r\n";
  invalid "POST / HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n";
  (* oversized headers are rejected even before the blank line shows up *)
  invalid ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 9000 'a');
  invalid ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 9000 'a' ^ "\r\n\r\n")

(* -- live-server fixture -------------------------------------------------- *)

let fixture_counter = ref 0

(* Serialize the tiny-workload snapshot and reload it — the reload is
   what jeddd does, and ~freeze lands the universe read-only.  Returns
   the reloaded snapshot and its universe hash. *)
let load_fixture ~frozen =
  let p = Workload.generate Workload.tiny in
  let inst, _ = Suite.run_combined p in
  let bytes = Snapshot.to_bytes (Suite.snapshot inst) in
  (Snapshot.of_bytes ~freeze:frozen bytes, Digest.to_hex (Digest.string bytes))

(* Serve [snap] on all three transports for the duration of [f].
   [config] supplies everything but the three listeners. *)
let serve_snapshot ?(config = Serve.default_config) (snap, hash) f =
  incr fixture_counter;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jedd-serve-test-%d-%d.sock" (Unix.getpid ())
         !fixture_counter)
  in
  if Sys.file_exists sock then Sys.remove sock;
  let config =
    {
      config with
      Serve.unix_path = Some sock;
      tcp = Some ("127.0.0.1", 0);
      http = Some ("127.0.0.1", 0);
    }
  in
  let server = Serve.create ~config ~universe_hash:hash snap in
  let th = Thread.create Serve.run server in
  let tcp_port = Option.get (Serve.tcp_port server) in
  let http_port = Option.get (Serve.http_port server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f ~sock ~tcp_port ~http_port)

let with_serve ?config ?(frozen = true) f =
  serve_snapshot ?config (load_fixture ~frozen) f

let q verb fields = Json.Obj (("verb", Json.String verb) :: fields)

let probe_queries =
  [
    q "ping" [];
    q "relations" [];
    q "count" [ ("rel", Json.String "PointsTo.pt") ];
    q "tuples" [ ("rel", Json.String "PointsTo.pt"); ("limit", Json.Int 5) ];
  ]

(* Responses (as strings) to the probe queries over each transport. *)
let probe_all ~sock ~tcp_port ~http_port =
  let over connect is_http =
    let c = connect () in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.map
      (fun query ->
        Json.to_string
          (if is_http then
             Http.client_request ~ic:c.Client.ic ~oc:c.Client.oc query
           else Client.request c query))
      probe_queries
  in
  [
    over (fun () -> Client.connect ~retries:10 sock) false;
    over (fun () -> Client.connect_tcp ~retries:10 "127.0.0.1" tcp_port) false;
    over
      (fun () -> Client.connect_tcp ~retries:10 "127.0.0.1" http_port)
      true;
  ]

(* -- end-to-end ----------------------------------------------------------- *)

let test_differential () =
  let frozen =
    with_serve (fun ~sock ~tcp_port ~http_port ->
        probe_all ~sock ~tcp_port ~http_port)
  in
  let unfrozen =
    with_serve ~frozen:false (fun ~sock ~tcp_port ~http_port ->
        probe_all ~sock ~tcp_port ~http_port)
  in
  let reference = List.hd frozen in
  List.iteri
    (fun i rs ->
      checkb
        (Printf.sprintf "frozen transport %d matches unix" i)
        true (rs = reference))
    frozen;
  List.iteri
    (fun i rs ->
      checkb
        (Printf.sprintf "unfrozen transport %d matches frozen" i)
        true (rs = reference))
    unfrozen

(* Declaring a physical domain allocates BDD variables — a mutation of
   the served universe.  On a frozen universe it fails with
   Manager.Frozen before touching the variable order, and the server
   goes on answering exactly as before; an unfrozen served universe
   accepts the same declaration. *)
let test_frozen_rejects_mutation () =
  let bits = 4 in
  let declare (snap : Snapshot.t) =
    Physdom.declare snap.Snapshot.u ~name:"mutation_probe" ~bits
  in
  let num_vars (snap : Snapshot.t) =
    Manager.num_vars (Universe.manager snap.Snapshot.u)
  in
  let ((snap, _) as fixture) = load_fixture ~frozen:true in
  serve_snapshot fixture (fun ~sock ~tcp_port ~http_port ->
      let before = probe_all ~sock ~tcp_port ~http_port in
      let vars = num_vars snap in
      (match declare snap with
      | _ ->
        Alcotest.fail "declaring a physical domain on a frozen universe \
                       succeeded"
      | exception Manager.Frozen msg ->
        checkb "error names the frozen state" true
          (let lower = String.lowercase_ascii msg in
           let rec find i =
             i + 6 <= String.length lower
             && (String.sub lower i 6 = "frozen" || find (i + 1))
           in
           find 0));
      checki "variable order untouched" vars (num_vars snap);
      checkb "answers unchanged after the refused mutation" true
        (probe_all ~sock ~tcp_port ~http_port = before));
  (* and an unfrozen served universe accepts the same declaration *)
  let ((snap, _) as fixture) = load_fixture ~frozen:false in
  serve_snapshot fixture (fun ~sock ~tcp_port ~http_port ->
      let before = probe_all ~sock ~tcp_port ~http_port in
      let vars = num_vars snap in
      ignore (declare snap : Physdom.t);
      checki "declaration allocated its variables" (vars + bits)
        (num_vars snap);
      checkb "answers unchanged after the declaration" true
        (probe_all ~sock ~tcp_port ~http_port = before))

let test_cache_and_stats () =
  with_serve (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = Client.connect ~retries:10 sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let query = q "count" [ ("rel", Json.String "PointsTo.pt") ] in
      let r1 = Client.request c query in
      let r2 = Client.request c query in
      checkb "repeat answers agree" true
        (Json.to_string r1 = Json.to_string r2);
      let stats = Client.request c (q "stats" []) in
      let get path obj =
        match Json.member path obj with
        | Some v -> v
        | None ->
          Alcotest.failf "stats lacks %S: %s" path (Json.to_string stats)
      in
      (match get "result_cache" stats with
      | Json.Obj _ as rc -> (
        match Json.member "hits" rc with
        | Some (Json.Int h) -> checkb "cache hit recorded" true (h >= 1)
        | _ -> Alcotest.fail "result_cache lacks hits")
      | _ -> Alcotest.fail "result_cache is not an object");
      (match get "latency" stats with
      | Json.Obj kvs -> checkb "per-verb latency present" true (kvs <> [])
      | _ -> Alcotest.fail "latency is not an object");
      (match get "frozen_sweeps" stats with
      | Json.Int _ -> ()
      | _ -> Alcotest.fail "frozen_sweeps is not an int");
      match get "frozen" stats with
      | Json.Bool b -> checkb "frozen reported" true b
      | _ -> Alcotest.fail "frozen is not a bool")

(* Serving under load: 50 concurrent TCP clients, 20 requests each,
   against the one frozen worker — mostly pointsto over a rotating set
   of variables (so the result cache sees repeats), one count in four.
   Every request must come back ok, and the cache must hit. *)
let test_tcp_load () =
  with_serve (fun ~sock ~tcp_port ~http_port:_ ->
      let vars =
        let c = Client.connect ~retries:10 sock in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        match
          Json.member "tuples"
            (Client.request_ok c
               (q "tuples" [ ("rel", Json.String "PointsTo.pt") ]))
        with
        | Some (Json.List ts) ->
          List.sort_uniq compare
            (List.filter_map
               (function Json.List (Json.Int v :: _) -> Some v | _ -> None)
               ts)
          |> Array.of_list
        | _ -> Alcotest.fail "tuples reply lacks a tuple list"
      in
      checkb "points-to has variables" true (Array.length vars > 0);
      let clients = 50 and requests = 20 in
      let ok = Atomic.make 0 and errors = Atomic.make 0 in
      let client () =
        match Client.connect_tcp ~retries:10 "127.0.0.1" tcp_port with
        | exception _ -> ignore (Atomic.fetch_and_add errors requests)
        | c ->
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          for j = 0 to requests - 1 do
            let request =
              if j mod 4 = 3 then
                q "count" [ ("rel", Json.String "PointsTo.pt") ]
              else
                q "pointsto" [ ("var", Json.Int vars.(j mod Array.length vars)) ]
            in
            match Client.request c request with
            | resp when Json.member "ok" resp = Some (Json.Bool true) ->
              Atomic.incr ok
            | _ | (exception _) -> Atomic.incr errors
          done
      in
      List.iter Thread.join (List.init clients (fun _ -> Thread.create client ()));
      checki "no failed requests" 0 (Atomic.get errors);
      checki "every request answered ok" (clients * requests) (Atomic.get ok);
      let c = Client.connect ~retries:10 sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      match Json.member "result_cache" (Client.request c (q "stats" [])) with
      | Some rc ->
        checkb "result cache hit under a repeating workload" true
          (match Json.member "hits" rc with Some (Json.Int h) -> h > 0 | _ -> false)
      | None -> Alcotest.fail "stats lacks result_cache")

(* Two POSTs written back-to-back before reading anything: the server
   must answer both, in order, on the one connection. *)
let test_http_pipelining_live () =
  with_serve (fun ~sock:_ ~tcp_port:_ ~http_port ->
      let c = Client.connect_tcp ~retries:10 "127.0.0.1" http_port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let body1 = Json.to_string (q "ping" []) in
      let body2 =
        Json.to_string (q "count" [ ("rel", Json.String "PointsTo.pt") ])
      in
      let raw body =
        Printf.sprintf
          "POST /query HTTP/1.1\r\nContent-Length: %d\r\n\r\n%s"
          (String.length body) body
      in
      output_string c.Client.oc (raw body1 ^ raw body2);
      flush c.Client.oc;
      let read_response () =
        let status = input_line c.Client.ic in
        let code =
          match String.split_on_char ' ' (String.trim status) with
          | _ :: code :: _ -> int_of_string code
          | _ -> Alcotest.failf "bad status line %S" status
        in
        let content_length = ref 0 in
        let rec headers () =
          let line = String.trim (input_line c.Client.ic) in
          if line <> "" then begin
            (match String.index_opt line ':' with
            | Some i
              when String.lowercase_ascii (String.sub line 0 i)
                   = "content-length" ->
              content_length :=
                int_of_string
                  (String.trim
                     (String.sub line (i + 1) (String.length line - i - 1)))
            | _ -> ());
            headers ()
          end
        in
        headers ();
        let body = really_input_string c.Client.ic !content_length in
        (code, Json.of_string body)
      in
      let code1, resp1 = read_response () in
      let code2, resp2 = read_response () in
      checki "first response 200" 200 code1;
      checki "second response 200" 200 code2;
      checkb "first is the ping reply" true
        (Json.member "pong" resp1 <> None
        || Json.member "ok" resp1 = Some (Json.Bool true));
      (match Json.member "tuples" resp2 with
      | Some (Json.Int n) -> checkb "second is the count reply" true (n > 0)
      | _ ->
        Alcotest.failf "second reply is not a count: %s"
          (Json.to_string resp2)))

let test_http_oversized_header_live () =
  with_serve (fun ~sock:_ ~tcp_port:_ ~http_port ->
      let c = Client.connect_tcp ~retries:10 "127.0.0.1" http_port in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      output_string c.Client.oc
        ("GET / HTTP/1.1\r\nX-Pad: " ^ String.make 10000 'a');
      flush c.Client.oc;
      let status = input_line c.Client.ic in
      checkb "431 for oversized headers" true
        (match String.split_on_char ' ' (String.trim status) with
        | _ :: code :: _ -> code = "431"
        | _ -> false))

(* -- live updates and generation swaps ------------------------------------ *)

(* A serving stack around a mutable Live session: frozen generation-0
   copy of the shadow universe, and the updater thread enabled. *)
let with_live_serve f =
  let p = Workload.generate Workload.tiny in
  let session = Live.create p in
  let bytes = Snapshot.to_bytes (Suite.snapshot (Live.inst session)) in
  let hash = Digest.to_hex (Digest.string bytes) in
  let snap = Snapshot.of_bytes ~freeze:true bytes in
  incr fixture_counter;
  let sock =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jedd-serve-live-%d-%d.sock" (Unix.getpid ())
         !fixture_counter)
  in
  if Sys.file_exists sock then Sys.remove sock;
  let config = { Serve.default_config with unix_path = Some sock } in
  let live_cfg = { Serve.session; initial_bytes = bytes; publish = None } in
  let server = Serve.create ~config ~live:live_cfg ~universe_hash:hash snap in
  let th = Thread.create Serve.run server in
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      if Sys.file_exists sock then Sys.remove sock)
    (fun () -> f ~sock ~session)

let int_member what key obj =
  match Json.member key obj with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.failf "%s: no integer %S in %s" what key (Json.to_string obj)

let test_live_update_swaps_generation () =
  with_live_serve (fun ~sock ~session ->
      let c = Client.connect ~retries:10 sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let count () =
        int_member "count" "tuples"
          (Client.request c (q "count" [ ("rel", Json.String "PointsTo.pt") ]))
      in
      let generation () =
        int_member "stats" "generation" (Client.request c (q "stats" []))
      in
      (* the swap serves the generation the reply names, and nothing
         publishes it *)
      let check_served what resp =
        (match
           ( Json.member "universe_hash" resp,
             Json.member "universe_hash" (Client.request c (q "stats" [])) )
         with
        | Some (Json.String h), Some (Json.String served) ->
          check Alcotest.string (what ^ ": stats serve the reply's hash") h
            served
        | _ -> Alcotest.failf "%s: no universe_hash" what);
        checkb (what ^ ": no published key") true
          (Json.member "published" resp = None)
      in
      checki "starts at generation 0" 0 (generation ());
      let before = count () in
      (* a fresh allocation must add at least one points-to tuple *)
      let update edit_fields =
        Client.request c
          (Json.Obj
             [
               ("verb", Json.String "update");
               ("edit", Json.Obj edit_fields);
               ("timeout_ms", Json.Int 120_000);
             ])
      in
      let resp =
        update
          [
            ("op", Json.String "add_alloc");
            ("var", Json.Int 0);
            ("cls", Json.Int 0);
          ]
      in
      checkb "update succeeded" true
        (Json.member "ok" resp = Some (Json.Bool true));
      checki "reply names generation 1" 1 (int_member "update" "generation" resp);
      (match Json.member "mode" resp with
      | Some (Json.String m) ->
        checkb "additions stay incremental" true (m = "incremental")
      | _ -> Alcotest.fail "update reply lacks mode");
      checki "queries see the new generation" 1 (generation ());
      checkb "points-to grew" true (count () > before);
      (* answers match a from-scratch solve of the edited program *)
      let _, fresh = Suite.run_combined (Live.program session) in
      checki "tuple count matches from-scratch" (List.length fresh.Suite.pt)
        (count ());
      check_served "update 1" resp;
      (* a second update moves to generation 2 and keeps serving *)
      let resp2 =
        update
          [
            ("op", Json.String "add_assign");
            ("src", Json.Int 0);
            ("dst", Json.Int 1);
          ]
      in
      checkb "second update succeeded" true
        (Json.member "ok" resp2 = Some (Json.Bool true));
      checki "generation 2" 2 (int_member "update" "generation" resp2);
      check_served "update 2" resp2;
      checkb "still answering" true (count () > 0);
      (* invalid edits are rejected without killing the session *)
      let bad =
        update
          [
            ("op", Json.String "add_alloc");
            ("var", Json.Int 999_999);
            ("cls", Json.Int 0);
          ]
      in
      checkb "invalid edit rejected" true
        (Json.member "ok" bad = Some (Json.Bool false));
      checki "generation unchanged after rejection" 2 (generation ()))

let test_update_without_live_session () =
  with_serve (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = Client.connect ~retries:10 sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let resp =
        Client.request c
          (q "update"
             [ ("edit", Json.Obj [ ("op", Json.String "add_field") ]) ])
      in
      checkb "update refused" true
        (Json.member "ok" resp = Some (Json.Bool false));
      match Json.member "error" resp with
      | Some (Json.String msg) ->
        checkb "error mentions --live" true
          (let needle = "--live" in
           let nl = String.length needle and hl = String.length msg in
           let rec go i =
             i + nl <= hl && (String.sub msg i nl = needle || go (i + 1))
           in
           go 0)
      | _ -> Alcotest.fail "no error message")

(* With the result cache off and a sweep threshold of one node, every
   query that builds scratch is followed by a sweep on the worker; a
   repeated probe set must still get identical answers. *)
let test_frozen_sweeps () =
  let config =
    { Serve.default_config with sweep_threshold = 1; cache_capacity = 0 }
  in
  with_serve ~config (fun ~sock ~tcp_port:_ ~http_port:_ ->
      let c = Client.connect ~retries:10 sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let probes =
        q "count" [ ("rel", Json.String "PointsTo.pt") ]
        :: List.init 4 (fun v -> q "pointsto" [ ("var", Json.Int v) ])
      in
      let answers () =
        List.map (fun r -> Json.to_string (Client.request_ok c r)) probes
      in
      let sweeps () =
        int_member "stats" "frozen_sweeps" (Client.request c (q "stats" []))
      in
      let first = answers () in
      let after_first = sweeps () in
      let second = answers () in
      checkb "the first probes swept" true (after_first >= 1);
      checkb "the repeat swept again" true (sweeps () > after_first);
      check Alcotest.(list string) "repeat answers identical" first second)

(* A listener that cannot be set up raises [Listen_error] naming its
   address; the listeners bound before it are closed (the Unix socket
   file removed), and a regular file at the socket path is left alone. *)
let test_listen_errors () =
  let p = Workload.generate Workload.tiny in
  let inst, _ = Suite.run_combined p in
  let snap =
    Snapshot.of_bytes ~freeze:true (Snapshot.to_bytes (Suite.snapshot inst))
  in
  let refused what config needle =
    match Serve.create ~config ~universe_hash:"" snap with
    | server ->
      Serve.stop server;
      Serve.run server;
      Alcotest.failf "%s: listener set up" what
    | exception Serve.Listen_error msg ->
      checkb (Printf.sprintf "%s: %S names %s" what msg needle) true
        (Test_store.contains msg needle)
  in
  let file = Filename.temp_file "jedd-serve" ".txt" in
  Out_channel.with_open_bin file (fun oc -> output_string oc "precious");
  Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
  refused "regular file"
    { Serve.default_config with unix_path = Some file }
    file;
  check Alcotest.string "regular file kept" "precious"
    (In_channel.with_open_bin file In_channel.input_all);
  let missing = Filename.concat file "j.sock" in
  refused "path under a file"
    { Serve.default_config with unix_path = Some missing }
    missing;
  (* a TCP port already listened on fails after the Unix socket bound *)
  let taken = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close taken) @@ fun () ->
  Unix.bind taken (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen taken 1;
  let port =
    match Unix.getsockname taken with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> Alcotest.fail "no port"
  in
  let sock = file ^ ".sock" in
  refused "tcp port in use"
    {
      Serve.default_config with
      unix_path = Some sock;
      tcp = Some ("127.0.0.1", port);
    }
    (Printf.sprintf "tcp 127.0.0.1:%d" port);
  checkb "bound socket file removed" false (Sys.file_exists sock)

let suite =
  [
    Alcotest.test_case "http framing: complete requests" `Quick
      test_http_parse;
    Alcotest.test_case "http framing: partial and pipelined" `Quick
      test_http_partial_and_pipelined;
    Alcotest.test_case "http framing: rejects" `Quick test_http_rejects;
    Alcotest.test_case "three transports, bit-identical answers" `Quick
      test_differential;
    Alcotest.test_case "frozen universe rejects mutation" `Quick
      test_frozen_rejects_mutation;
    Alcotest.test_case "result cache and stats shape" `Quick
      test_cache_and_stats;
    Alcotest.test_case "tcp clients against one frozen worker" `Quick
      test_tcp_load;
    Alcotest.test_case "live http pipelining" `Quick
      test_http_pipelining_live;
    Alcotest.test_case "live http oversized header -> 431" `Quick
      test_http_oversized_header_live;
    Alcotest.test_case "update verb swaps generations" `Quick
      test_live_update_swaps_generation;
    Alcotest.test_case "update without --live is refused" `Quick
      test_update_without_live_session;
    Alcotest.test_case "frozen sweeps under a small threshold" `Quick
      test_frozen_sweeps;
    Alcotest.test_case "listener errors name the address" `Quick
      test_listen_errors;
  ]
