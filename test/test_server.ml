(* End-to-end tests for the query protocol over a Unix socket, served
   the way [jedd-analyze --serve] serves it: the Serve front end with
   one Unix listener and one worker over the live, unfrozen analysis
   universe — queries, batching, per-request timeouts, error replies,
   concurrent clients and graceful shutdown. *)

module Json = Jedd_server.Json
module Client = Jedd_server.Client
module Serve = Jedd_serve.Serve
module Suite = Jedd_analyses.Suite
module Workload = Jedd_minijava.Workload

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* -- JSON unit tests (no socket) ----------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      "null";
      "true";
      "-42";
      "[1,2,[],{}]";
      {|{"a":1,"b":[true,null],"c":"x\ny"}|};
      {|"Aé"|};
    ]
  in
  List.iter
    (fun s ->
      let v = Json.of_string s in
      check Alcotest.string "reparse is stable" (Json.to_string v)
        (Json.to_string (Json.of_string (Json.to_string v))))
    cases;
  (* strictness *)
  List.iter
    (fun s ->
      match Json.of_string s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed JSON %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated" ]

(* -- socket fixture ------------------------------------------------------ *)

let with_server ?backend f =
  let p = Workload.generate Workload.tiny in
  let inst, _ = Suite.run_combined ?backend p in
  let snap = Suite.snapshot inst in
  let socket_path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "jeddd-test-%d.sock" (Unix.getpid ()))
  in
  let config = { Serve.default_config with unix_path = Some socket_path } in
  let server = Serve.create ~config ~universe_hash:"" snap in
  let th = Thread.create Serve.run server in
  (* the listener is bound before create returns; connects just work *)
  Fun.protect
    ~finally:(fun () ->
      Serve.stop server;
      Thread.join th;
      if Sys.file_exists socket_path then Sys.remove socket_path)
    (fun () -> f socket_path)

let obj_get resp key =
  match Json.member key resp with
  | Some v -> v
  | None -> Alcotest.failf "response lacks %S: %s" key (Json.to_string resp)

let test_queries () =
  with_server (fun sock ->
      let c = Client.connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Client.ping c;
      (* suffix lookup: "pt" resolves to "PointsTo.pt" *)
      let n_alias = Client.count c "pt" in
      let n_full = Client.count c "PointsTo.pt" in
      checki "alias and full name agree" n_full n_alias;
      checkb "points-to is non-empty" true (n_full > 0);
      (* membership agrees with extraction *)
      let resp =
        Client.request_ok c
          (Json.Obj
             [
               ("verb", Json.String "tuples");
               ("rel", Json.String "pt");
               ("limit", Json.Int 1);
             ])
      in
      (match obj_get resp "tuples" with
      | Json.List [ Json.List [ Json.Int v; Json.Int h ] ] ->
        let m =
          Client.request_ok c
            (Json.Obj
               [
                 ("verb", Json.String "member");
                 ("rel", Json.String "pt");
                 ("tuple", Json.List [ Json.Int v; Json.Int h ]);
               ])
        in
        checkb "extracted tuple is a member" true
          (obj_get m "member" = Json.Bool true);
        (* and pointsto v contains h *)
        let heaps = Client.pointsto c v in
        checkb "pointsto covers the tuple" true (List.mem h heaps)
      | other -> Alcotest.failf "unexpected tuples %s" (Json.to_string other));
      (* error replies keep the connection usable *)
      let e =
        Client.request c
          (Json.Obj
             [ ("verb", Json.String "count"); ("rel", Json.String "nope") ])
      in
      checkb "unknown relation is ok:false" true
        (obj_get e "ok" = Json.Bool false);
      let e2 =
        Client.request c (Json.Obj [ ("verb", Json.String "frobnicate") ])
      in
      checkb "unknown verb is ok:false" true (obj_get e2 "ok" = Json.Bool false);
      Client.ping c)

let test_batch_and_stats () =
  with_server (fun sock ->
      let c = Client.connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let resp =
        Client.request_ok c
          (Json.Obj
             [
               ("verb", Json.String "batch");
               ( "requests",
                 Json.List
                   [
                     Json.Obj
                       [ ("verb", Json.String "ping"); ("id", Json.Int 1) ];
                     Json.Obj
                       [
                         ("verb", Json.String "count");
                         ("rel", Json.String "pt");
                         ("id", Json.Int 2);
                       ];
                     Json.Obj
                       [
                         ("verb", Json.String "count");
                         ("rel", Json.String "nope");
                         ("id", Json.Int 3);
                       ];
                   ] );
             ])
      in
      (match obj_get resp "responses" with
      | Json.List [ r1; r2; r3 ] ->
        checkb "batch ids echo" true (obj_get r1 "id" = Json.Int 1);
        checkb "batch count ok" true (obj_get r2 "ok" = Json.Bool true);
        checkb "batch error isolated" true (obj_get r3 "ok" = Json.Bool false)
      | other -> Alcotest.failf "unexpected batch %s" (Json.to_string other));
      let stats = Client.request_ok c (Json.Obj [ ("verb", Json.String "stats") ]) in
      (match obj_get stats "requests" with
      | Json.Int n -> checkb "requests counted" true (n >= 1)
      | _ -> Alcotest.fail "stats.requests not an int");
      match obj_get stats "bdd" with
      | Json.Obj kvs ->
        checkb "bdd stats carry live_nodes" true
          (List.mem_assoc "live_nodes" kvs)
      | _ -> Alcotest.fail "stats.bdd not an object")

let test_timeout () =
  with_server (fun sock ->
      let c = Client.connect sock in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let resp =
        Client.request c
          (Json.Obj
             [
               ("verb", Json.String "sleep");
               ("ms", Json.Int 400);
               ("timeout_ms", Json.Int 30);
             ])
      in
      checkb "slow request times out" true (obj_get resp "ok" = Json.Bool false);
      check Alcotest.string "timeout error text" "timeout"
        (match obj_get resp "error" with Json.String s -> s | _ -> "?");
      (* the worker finishes the abandoned job and the server stays
         healthy for the next request on the same connection *)
      Client.ping c;
      let stats = Client.request_ok c (Json.Obj [ ("verb", Json.String "stats") ]) in
      match obj_get stats "timeouts" with
      | Json.Int n -> checkb "timeout counted" true (n >= 1)
      | _ -> Alcotest.fail "stats.timeouts not an int")

let test_concurrent_clients () =
  with_server (fun sock ->
      let expected = ref 0 in
      (let c = Client.connect sock in
       expected := Client.count c "pt";
       Client.close c);
      let results = Array.make 8 (-1) in
      let threads =
        Array.init 8 (fun i ->
            Thread.create
              (fun () ->
                let c = Client.connect sock in
                Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
                for _ = 1 to 5 do
                  results.(i) <- Client.count c "pt"
                done)
              ())
      in
      Array.iter Thread.join threads;
      Array.iteri
        (fun i r -> checki (Printf.sprintf "client %d sees the count" i) !expected r)
        results)

let test_shutdown () =
  with_server (fun sock ->
      let c = Client.connect sock in
      Client.shutdown c;
      Client.close c;
      (* the socket stops accepting (either refused or unlinked) *)
      let rec gone tries =
        if tries = 0 then false
        else
          match Client.connect sock with
          | exception _ -> true
          | c2 -> (
            (* accepted before teardown finished: the connection must
               be refused service *)
            match Client.request c2 (Json.Obj [ ("verb", Json.String "ping") ]) with
            | exception _ ->
              Client.close c2;
              true
            | resp ->
              Client.close c2;
              if Json.member "ok" resp = Some (Json.Bool false) then true
              else begin
                Thread.delay 0.05;
                gone (tries - 1)
              end)
      in
      checkb "server is down after shutdown" true (gone 40))

(* One worker serves an unfrozen universe of either backend. *)
let test_every_backend () =
  let count backend =
    with_server ~backend (fun sock ->
        let c = Client.connect sock in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        Client.ping c;
        Client.count c "pt")
  in
  checki "mtbdd serves the in-core count" (count `Incore) (count `Mtbdd)

(* -- result-cache eviction (no socket) ----------------------------------- *)

let test_rescache_evict_suffix () =
  let module Rescache = Jedd_server.Rescache in
  let c = Rescache.create ~capacity:64 in
  Rescache.add c "count-pt#gen0" [ ("tuples", Json.Int 1) ];
  Rescache.add c "count-subtypes#gen0" [ ("tuples", Json.Int 2) ];
  Rescache.add c "count-pt#gen1" [ ("tuples", Json.Int 3) ];
  checki "three entries cached" 3 (Rescache.entries c);
  checki "retired generation evicted" 2
    (Rescache.evict_suffix c "#gen0");
  checki "one entry survives" 1 (Rescache.entries c);
  checkb "retired keys miss" true (Rescache.find c "count-pt#gen0" = None);
  checkb "live generation still hits" true
    (Rescache.find c "count-pt#gen1" <> None);
  checki "re-evicting is a no-op" 0 (Rescache.evict_suffix c "#gen0");
  (* eviction keeps the FIFO order queue consistent: capacity-driven
     eviction afterwards must not drop phantom keys *)
  checkb "evictions counted" true (Rescache.evictions c >= 2)

let suite =
  [
    Alcotest.test_case "json roundtrip and strictness" `Quick test_json_roundtrip;
    Alcotest.test_case "result-cache suffix eviction" `Quick
      test_rescache_evict_suffix;
    Alcotest.test_case "queries over a live socket" `Quick test_queries;
    Alcotest.test_case "batch and stats" `Quick test_batch_and_stats;
    Alcotest.test_case "per-request timeout" `Quick test_timeout;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "graceful shutdown" `Quick test_shutdown;
    Alcotest.test_case "one worker on every backend" `Quick test_every_backend;
  ]
