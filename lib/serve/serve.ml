(* The multiplexing front end of jeddd-serve: one event-loop thread
   running select() over nonblocking sockets — a Unix-socket listener,
   a TCP listener and an HTTP listener, any subset enabled — feeding
   the query worker (Pool, one domain) and flushing responses back in
   request order per connection.

   Flow of one request: the loop reads bytes into the connection's
   buffer, peels off a complete request (newline-framed JSON on
   Unix/TCP, Content-Length-framed HTTP on the HTTP port), allocates an
   ordered response slot, and submits the job.  The worker evaluates it
   through the generation's Qeval (result cache + latency histograms) and
   pushes the outcome onto the completion queue, waking the loop
   through a self-pipe.  The loop renders the response into the slot
   and writes out the longest filled prefix of each connection's slot
   queue — so pipelined clients always see answers in send order.
   Deadlines are enforced by the loop itself: an overdue slot is
   answered with a timeout error and its job is flagged cancelled, so
   the worker that picks it up (or finishes it late) drops the result.

   select() caps the loop at FD_SETSIZE descriptors (~1024); heavier
   fan-in belongs behind multiple processes. *)

(* Live updates: when created with a [live_config], the front end also
   accepts the "update" verb.  Edits are applied to the mutable shadow
   universe (Jedd_analyses.Live) on a dedicated updater thread, the
   re-solved universe's relations are copied into a fresh frozen
   generation ([Snapshot.copy]), a new worker is attached to it, and the
   generation pointer is swapped atomically — in-flight queries finish
   against the old generation, which is retired once its worker has
   drained its queue ([Pool.stop] drains and joins).  The result cache
   is shared across generations (keys embed the universe hash) and the
   retired hash's entries are evicted at swap. *)

module Json = Jedd_server.Json
module Protocol = Jedd_server.Protocol
module Qeval = Jedd_server.Qeval
module Rescache = Jedd_server.Rescache
module Snapshot = Jedd_store.Snapshot
module Live = Jedd_analyses.Live
module Suite = Jedd_analyses.Suite
module Edit = Jedd_incr.Edit
module U = Jedd_relation.Universe

type config = {
  unix_path : string option;
  tcp : (string * int) option; (* bind address, port *)
  http : (string * int) option;
  workers : int; (* must be 1: one query worker *)
  default_timeout_ms : int;
  cache_capacity : int;
  sweep_threshold : int;
}

let default_config =
  {
    unix_path = None;
    tcp = None;
    http = None;
    workers = 1;
    default_timeout_ms = 30_000;
    cache_capacity = 4096;
    sweep_threshold = 1 lsl 20;
  }

type slot = {
  mutable out : string option; (* rendered bytes, ready to flush *)
  deadline : float;
  cancelled : bool Atomic.t;
  render : Json.t -> string;
  close_conn : bool; (* close after flushing this response *)
}

type kind = Line | Http_conn

type conn = {
  fd : Unix.file_descr;
  id : int;
  kind : kind;
  mutable rdata : string; (* unconsumed input *)
  mutable wdata : string; (* rendered output not yet written *)
  slots : slot Queue.t; (* responses in request order *)
  mutable closing : bool; (* no more reads; flush and close *)
}

type stats = {
  mutable connections : int;
  mutable timeouts : int;
  mutable parse_errors : int;
}

(* One serving generation: a (usually frozen) snapshot universe, its
   evaluator, and the worker bound to it.  [hash] names the generation
   and is the cache-key component: generation 0's is given to [create]
   (jeddd passes the hex MD5 of its snapshot bytes), and each update's
   is the hex MD5 of the previous hash, a newline and the edit's
   description, so it names the edit history since generation 0. *)
type generation = {
  snap : Snapshot.t;
  hash : string;
  qeval : Qeval.t;
  gpool : Pool.t;
  gen_no : int;
}

(* Uninhabited: new generations are not published anywhere. *)
type publisher = |

type live_config = {
  session : Live.t;
  initial_bytes : string;
      (** generation 0's snapshot bytes; the server does not read them *)
  publish : publisher option;  (** always [None] *)
}

type live_state = {
  session : Live.t;
  updates : (Json.t * (Protocol.outcome -> unit)) Queue.t;
  um : Mutex.t;
  uc : Condition.t;
  mutable ustop : bool;
  mutable uthread : Thread.t option;
}

type t = {
  config : config;
  mutable gen : generation;  (* swapped whole by the updater thread *)
  cache : Rescache.t option;  (* shared across generations *)
  live : live_state option;
  listeners : (Unix.file_descr * kind) list;
  tcp_fd : Unix.file_descr option;
  http_fd : Unix.file_descr option;
  wake_rd : Unix.file_descr;
  wake_wr : Unix.file_descr;
  completions : (int * slot * Json.t * bool) Queue.t; (* conn id, quit? *)
  cm : Mutex.t;
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable stopping : bool;
  stats : stats;
  started : float;
}

let max_line_buffer = 16 * 1024 * 1024

(* -- listeners ----------------------------------------------------------- *)

exception Listen_error of string
(* A listener could not be set up; the message names its address. *)

let listen_error fmt =
  Printf.ksprintf (fun s -> raise (Listen_error ("cannot listen on " ^ s))) fmt

(* A socket bound and listening on [addr]; on failure it is closed and
   [Listen_error] names [what]. *)
let listen_on what addr =
  match Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error (e, _, _) ->
    listen_error "%s: %s" what (Unix.error_message e)
  | fd -> (
    try
      (match addr with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
      | Unix.ADDR_UNIX _ -> ());
      Unix.bind fd addr;
      Unix.listen fd 128;
      Unix.set_nonblock fd;
      fd
    with Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      listen_error "%s: %s" what (Unix.error_message e))

(* A stale socket left by an earlier run is replaced; any other file at
   [path] is left alone, and the bind then fails naming it. *)
let listen_unix path =
  (match Unix.lstat path with
  | { Unix.st_kind = Unix.S_SOCK; _ } -> ( try Unix.unlink path with _ -> ())
  | _ | (exception Unix.Unix_error _) -> ());
  listen_on path (Unix.ADDR_UNIX path)

let listen_tcp proto (host, port) =
  let what = Printf.sprintf "%s %s:%d" proto host port in
  match
    Unix.getaddrinfo host (string_of_int port)
      [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM; Unix.AI_PASSIVE ]
  with
  | ai :: _ -> listen_on what ai.Unix.ai_addr
  | [] -> listen_error "%s: cannot resolve %s" what host

(* Bind every configured listener, or none: if one fails, those already
   bound are closed (and the Unix socket file, always bound first, is
   removed) before the error propagates. *)
let bind_listeners config =
  let bound = ref [] in
  let bind f x =
    let fd = f x in
    bound := fd :: !bound;
    fd
  in
  try
    let unix_fd = Option.map (bind listen_unix) config.unix_path in
    let tcp_fd = Option.map (bind (listen_tcp "tcp")) config.tcp in
    let http_fd = Option.map (bind (listen_tcp "http")) config.http in
    (unix_fd, tcp_fd, http_fd)
  with Listen_error _ as e ->
    List.iter Unix.close !bound;
    (if !bound <> [] then
       Option.iter (fun p -> try Unix.unlink p with _ -> ()) config.unix_path);
    raise e

let bound_port fd =
  match Unix.getsockname fd with
  | Unix.ADDR_INET (_, port) -> port
  | _ -> 0

(* -- construction -------------------------------------------------------- *)

let server_stats t () =
  let gen = t.gen in
  [
    ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started));
    ("generation", Json.Int gen.gen_no);
    ("requests", Json.Int (Pool.requests gen.gpool));
    ("errors", Json.Int (Pool.errors gen.gpool));
    ("timeouts", Json.Int t.stats.timeouts);
    ("parse_errors", Json.Int t.stats.parse_errors);
    ("connections", Json.Int t.stats.connections);
    ("queue_depth", Json.Int (Pool.queue_depth gen.gpool));
    ("active_connections", Json.Int (Hashtbl.length t.conns));
  ]
  @ Pool.stats_fields gen.gpool
  @ Qeval.stats_fields gen.qeval

let create ?(config = default_config) ?live ~universe_hash snap =
  if config.unix_path = None && config.tcp = None && config.http = None then
    invalid_arg "Serve.create: no listener configured";
  if config.workers <> 1 then
    invalid_arg "Serve.create: workers must be 1 (one query worker)";
  let unix_fd, tcp_fd, http_fd = bind_listeners config in
  let stats_hook = ref (fun () -> []) in
  let world =
    { Protocol.snap; extra_stats = (fun () -> !stats_hook ()) }
  in
  let cache =
    if config.cache_capacity > 0 then
      Some (Rescache.create ~capacity:config.cache_capacity)
    else None
  in
  let qeval = Qeval.create ?cache ~cache_capacity:0 ~universe_hash world in
  let pool = Pool.create ~sweep_threshold:config.sweep_threshold qeval in
  let listeners =
    List.concat
      [
        (match unix_fd with Some fd -> [ (fd, Line) ] | None -> []);
        (match tcp_fd with Some fd -> [ (fd, Line) ] | None -> []);
        (match http_fd with Some fd -> [ (fd, Http_conn) ] | None -> []);
      ]
  in
  let wake_rd, wake_wr = Unix.pipe () in
  Unix.set_nonblock wake_rd;
  Unix.set_nonblock wake_wr;
  let live_state =
    Option.map
      (fun (lc : live_config) ->
        {
          session = lc.session;
          updates = Queue.create ();
          um = Mutex.create ();
          uc = Condition.create ();
          ustop = false;
          uthread = None;
        })
      live
  in
  let t =
    {
      config;
      gen = { snap; hash = universe_hash; qeval; gpool = pool; gen_no = 0 };
      cache;
      live = live_state;
      listeners;
      tcp_fd;
      http_fd;
      wake_rd;
      wake_wr;
      completions = Queue.create ();
      cm = Mutex.create ();
      conns = Hashtbl.create 64;
      next_conn = 0;
      stopping = false;
      stats = { connections = 0; timeouts = 0; parse_errors = 0 };
      started = Unix.gettimeofday ();
    }
  in
  stats_hook := (fun () -> server_stats t ());
  t

(* TCP/HTTP ports actually bound (useful with port 0 in tests). *)
let tcp_port t = Option.map bound_port t.tcp_fd
let http_port t = Option.map bound_port t.http_fd

let wake t = try ignore (Unix.write t.wake_wr (Bytes.of_string "x") 0 1) with _ -> ()

(* -- live updates -------------------------------------------------------- *)

let bad fmt = Format.kasprintf (fun s -> raise (Protocol.Bad_request s)) fmt

(* {"verb":"update", "edit":{"op":"add_assign","src":1,"dst":2}} *)
let edit_of_json request : Edit.t =
  let e =
    match Json.member "edit" request with
    | Some (Json.Obj _ as o) -> o
    | Some _ -> bad "\"edit\" must be an object"
    | None -> bad "missing \"edit\""
  in
  let int k =
    match Json.member k e with
    | Some (Json.Int v) -> v
    | Some _ -> bad "edit field %S must be an integer" k
    | None -> bad "edit is missing field %S" k
  in
  let opt_int k =
    match Json.member k e with
    | Some (Json.Int v) -> Some v
    | Some Json.Null | None -> None
    | Some _ -> bad "edit field %S must be an integer" k
  in
  let flag k default =
    match Json.member k e with
    | Some (Json.Bool b) -> b
    | None -> default
    | Some _ -> bad "edit field %S must be a boolean" k
  in
  match Json.member "op" e with
  | Some (Json.String op) -> (
    match op with
    | "add_class" -> Edit.Add_class { superclass = opt_int "superclass" }
    | "add_method" ->
      Edit.Add_method
        {
          cls = int "cls";
          signature = int "signature";
          n_vars = Option.value (opt_int "n_vars") ~default:2;
          entry = flag "entry" false;
        }
    | "add_field" -> Edit.Add_field
    | "add_alloc" -> Edit.Add_alloc { var = int "var"; cls = int "cls" }
    | "add_assign" -> Edit.Add_assign { src = int "src"; dst = int "dst" }
    | "add_store" ->
      Edit.Add_store { src = int "src"; base = int "base"; field = int "field" }
    | "add_load" ->
      Edit.Add_load { base = int "base"; field = int "field"; dst = int "dst" }
    | "add_callsite" ->
      Edit.Add_callsite
        { recv = int "recv"; signature = int "signature"; in_method = int "in_method" }
    | "remove_assign" -> Edit.Remove_assign { src = int "src"; dst = int "dst" }
    | "remove_store" ->
      Edit.Remove_store
        { src = int "src"; base = int "base"; field = int "field" }
    | "remove_load" ->
      Edit.Remove_load
        { base = int "base"; field = int "field"; dst = int "dst" }
    | "remove_callsite" -> Edit.Remove_callsite { callsite = int "callsite" }
    | "remove_method" -> Edit.Remove_method { meth = int "meth" }
    | "remove_class" -> Edit.Remove_class { cls = int "cls" }
    | op -> bad "unknown edit op %S" op)
  | Some _ -> bad "edit \"op\" must be a string"
  | None -> bad "edit is missing \"op\""

(* Runs on the updater thread.  Applies the edit to the shadow
   universe, re-solves incrementally, copies the result into a fresh
   (frozen iff the current generation is) universe with its own worker,
   swaps the generation pointer, then retires the old worker once it
   has drained its queue and evicts its cache entries. *)
let perform_update t ls request : Protocol.outcome =
  let id = Protocol.request_id request in
  try
    let t0 = Unix.gettimeofday () in
    let edit = edit_of_json request in
    let ustats = Live.update ls.session edit in
    let old = t.gen in
    let gen_no = old.gen_no + 1 in
    let snap_live =
      Suite.snapshot
        ~meta:
          [
            ("jedd.generation", string_of_int gen_no);
            ("jedd.edit", Edit.describe edit);
          ]
        (Live.inst ls.session)
    in
    let snap = Snapshot.copy ~freeze:(U.frozen old.snap.Snapshot.u) snap_live in
    let hash =
      Digest.to_hex (Digest.string (old.hash ^ "\n" ^ Edit.describe edit))
    in
    let world =
      { Protocol.snap; extra_stats = (fun () -> server_stats t ()) }
    in
    let qeval =
      Qeval.create ?cache:t.cache ~cache_capacity:0 ~universe_hash:hash world
    in
    let gpool = Pool.create ~sweep_threshold:t.config.sweep_threshold qeval in
    (* the swap: new submissions route to the new pool from here on *)
    t.gen <- { snap; hash; qeval; gpool; gen_no };
    (* retire the old generation: drain its queue, join its worker,
       then drop the last references so the old universe can be
       collected, and flush its answers from the shared cache *)
    Pool.stop old.gpool;
    let evicted =
      match t.cache with
      | Some c -> Rescache.evict_suffix c ("#" ^ old.hash)
      | None -> 0
    in
    let millis = (Unix.gettimeofday () -. t0) *. 1000. in
    Protocol.Reply
      (Protocol.ok id
         [
           ("updated", Json.Bool true);
           ("edit", Json.String (Edit.describe edit));
           ("mode", Json.String (Live.mode_to_string ustats.Live.mode));
           ("generation", Json.Int gen_no);
           ("universe_hash", Json.String hash);
           ("solve_millis", Json.Float ustats.Live.millis);
           ("total_millis", Json.Float millis);
           ("evicted_cache_entries", Json.Int evicted);
           ( "stages",
             Json.List
               (List.map
                  (fun (s : Live.stage_stats) ->
                    Json.Obj
                      [
                        ("stage", Json.String s.Live.stage);
                        ("action", Json.String s.Live.action);
                        ("iterations", Json.Int s.Live.iterations);
                        ("delta_tuples", Json.Int s.Live.delta_tuples);
                        ("millis", Json.Float s.Live.stage_millis);
                      ])
                  ustats.Live.stages) );
         ])
  with
  | Protocol.Bad_request msg -> Protocol.Reply (Protocol.err id msg)
  | Edit.Invalid_edit msg ->
    Protocol.Reply (Protocol.err id (Printf.sprintf "invalid edit: %s" msg))
  | e ->
    Protocol.Reply
      (Protocol.err id
         (Printf.sprintf "update failed: %s" (Printexc.to_string e)))

let updater_loop t ls =
  let rec next () =
    Mutex.lock ls.um;
    let rec wait () =
      if ls.ustop then None
      else if Queue.is_empty ls.updates then begin
        Condition.wait ls.uc ls.um;
        wait ()
      end
      else Some (Queue.pop ls.updates)
    in
    let job = wait () in
    Mutex.unlock ls.um;
    match job with
    | None -> ()
    | Some (request, deliver) ->
      deliver (perform_update t ls request);
      next ()
  in
  next ()

let start_updater t =
  match t.live with
  | Some ls when ls.uthread = None ->
    ls.uthread <- Some (Thread.create (fun () -> updater_loop t ls) ())
  | _ -> ()

let stop_updater t =
  match t.live with
  | Some ls -> (
    Mutex.lock ls.um;
    ls.ustop <- true;
    Condition.broadcast ls.uc;
    Mutex.unlock ls.um;
    match ls.uthread with
    | Some th ->
      Thread.join th;
      ls.uthread <- None
    | None -> ())
  | None -> ()

(* -- request intake ------------------------------------------------------ *)

let timeout_of t request =
  match Json.member "timeout_ms" request with
  | Some (Json.Int ms) when ms > 0 -> float_of_int ms /. 1000.
  | _ -> float_of_int t.config.default_timeout_ms /. 1000.

let push_slot conn slot = Queue.push slot conn.slots

let immediate conn render v =
  push_slot conn
    {
      out = Some (render v);
      deadline = infinity;
      cancelled = Atomic.make true;
      render;
      close_conn = false;
    }

(* A generation swap stops the old pool after the pointer flips; a
   submit that raced the flip sees [false] and retries against the
   current pool. *)
let rec pool_submit t ~retries ~request ~cancelled ~deliver =
  let pool = t.gen.gpool in
  Pool.submit pool ~request ~cancelled ~deliver
  || (retries > 0 && not t.stopping
     && pool_submit t ~retries:(retries - 1) ~request ~cancelled ~deliver)

(* Submit one protocol request read from [conn]; the response lands in
   an ordered slot. *)
let submit t conn render ~close_conn request =
  let slot =
    {
      out = None;
      deadline = Unix.gettimeofday () +. timeout_of t request;
      cancelled = Atomic.make false;
      render;
      close_conn;
    }
  in
  push_slot conn slot;
  let id = conn.id in
  let deliver outcome =
    let resp, quit =
      match outcome with
      | Protocol.Reply r -> (r, false)
      | Protocol.Quit r -> (r, true)
    in
    Mutex.lock t.cm;
    Queue.push (id, slot, resp, quit) t.completions;
    Mutex.unlock t.cm;
    wake t
  in
  let is_update =
    match Json.member "verb" request with
    | Some (Json.String "update") -> true
    | _ -> false
  in
  if is_update then
    match t.live with
    | None ->
      slot.out <-
        Some
          (render
             (Protocol.err (Protocol.request_id request)
                "server is not running a live session (start jeddd with \
                 --live)"))
    | Some ls ->
      Mutex.lock ls.um;
      Queue.push (request, deliver) ls.updates;
      Condition.signal ls.uc;
      Mutex.unlock ls.um
  else if
    not (pool_submit t ~retries:4 ~request ~cancelled:slot.cancelled ~deliver)
  then
    slot.out <-
      Some
        (render
           (Protocol.err (Protocol.request_id request) "server is shutting down"))

let handle_json_line t conn line =
  match Json.of_string line with
  | exception Json.Parse_error msg ->
    t.stats.parse_errors <- t.stats.parse_errors + 1;
    immediate conn
      (fun v -> Json.to_string v ^ "\n")
      (Protocol.err Json.Null (Printf.sprintf "parse error: %s" msg))
  | Json.Obj _ as request ->
    submit t conn (fun v -> Json.to_string v ^ "\n") ~close_conn:false request
  | _ ->
    t.stats.parse_errors <- t.stats.parse_errors + 1;
    immediate conn
      (fun v -> Json.to_string v ^ "\n")
      (Protocol.err Json.Null "request must be a JSON object")

let rec drain_lines t conn =
  match String.index_opt conn.rdata '\n' with
  | None ->
    if String.length conn.rdata > max_line_buffer then conn.closing <- true
  | Some i ->
    let line = String.sub conn.rdata 0 i in
    conn.rdata <-
      String.sub conn.rdata (i + 1) (String.length conn.rdata - i - 1);
    let line = String.trim line in
    if line <> "" then handle_json_line t conn line;
    drain_lines t conn

let http_render keep_alive v = Http.response ~keep_alive (Json.to_string v)

let handle_http_request t conn (req : Http.request) =
  let close_conn = not req.keep_alive in
  let render = http_render req.keep_alive in
  match (req.meth, req.path) with
  | "POST", _ -> (
    match Json.of_string req.body with
    | exception Json.Parse_error msg ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      push_slot conn
        {
          out = Some (Http.error_response ~keep_alive:req.keep_alive 400
                        (Printf.sprintf "parse error: %s" msg));
          deadline = infinity;
          cancelled = Atomic.make true;
          render;
          close_conn;
        }
    | Json.Obj _ as request -> submit t conn render ~close_conn request
    | _ ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      push_slot conn
        {
          out = Some (Http.error_response ~keep_alive:req.keep_alive 400
                        "request must be a JSON object");
          deadline = infinity;
          cancelled = Atomic.make true;
          render;
          close_conn;
        })
  | "GET", "/ping" ->
    submit t conn render ~close_conn
      (Json.Obj [ ("verb", Json.String "ping") ])
  | "GET", "/stats" ->
    submit t conn render ~close_conn
      (Json.Obj [ ("verb", Json.String "stats") ])
  | "GET", _ ->
    push_slot conn
      {
        out = Some (Http.error_response ~keep_alive:req.keep_alive 404
                      (Printf.sprintf "no such path %s" req.path));
        deadline = infinity;
        cancelled = Atomic.make true;
        render;
        close_conn;
      }
  | _ ->
    push_slot conn
      {
        out = Some (Http.error_response ~keep_alive:req.keep_alive 405
                      (Printf.sprintf "method %s not allowed" req.meth));
        deadline = infinity;
        cancelled = Atomic.make true;
        render;
        close_conn;
      }

let rec drain_http t conn =
  if not conn.closing then
    match Http.parse_request conn.rdata with
    | Http.Incomplete -> ()
    | Http.Invalid msg ->
      t.stats.parse_errors <- t.stats.parse_errors + 1;
      conn.rdata <- "";
      (* reject and hang up: a framing error leaves the stream unusable *)
      push_slot conn
        {
          out =
            Some
              (Http.error_response
                 (if msg = "headers exceed 8192 bytes" then 431
                  else if msg = "body too large" then 413
                  else 400)
                 msg);
          deadline = infinity;
          cancelled = Atomic.make true;
          render = http_render false;
          close_conn = true;
        };
      conn.closing <- true
    | Http.Complete (req, consumed) ->
      conn.rdata <-
        String.sub conn.rdata consumed (String.length conn.rdata - consumed);
      handle_http_request t conn req;
      drain_http t conn

(* -- connection lifecycle ------------------------------------------------ *)

let close_conn t conn =
  (* cancel outstanding jobs so late results are dropped *)
  Queue.iter (fun s -> Atomic.set s.cancelled true) conn.slots;
  Hashtbl.remove t.conns conn.id;
  try Unix.close conn.fd with _ -> ()

let accept_new t (lfd, kind) =
  let rec go () =
    match Unix.accept lfd with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception _ -> ()
    | fd, _ ->
      Unix.set_nonblock fd;
      (match kind with
      | Line | Http_conn -> (
        try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ()));
      t.next_conn <- t.next_conn + 1;
      t.stats.connections <- t.stats.connections + 1;
      let conn =
        {
          fd;
          id = t.next_conn;
          kind;
          rdata = "";
          wdata = "";
          slots = Queue.create ();
          closing = false;
        }
      in
      Hashtbl.replace t.conns conn.id conn;
      go ()
  in
  go ()

let read_conn t conn =
  let buf = Bytes.create 65536 in
  let rec go () =
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception _ -> conn.closing <- true
    | 0 -> conn.closing <- true
    | n ->
      conn.rdata <- conn.rdata ^ Bytes.sub_string buf 0 n;
      if n = Bytes.length buf then go ()
  in
  go ();
  (match conn.kind with
  | Line -> drain_lines t conn
  | Http_conn -> drain_http t conn)

(* Move the longest filled prefix of the slot queue into the write
   buffer; returns [true] if this connection should close once the
   buffer drains. *)
let promote_slots conn =
  let close = ref false in
  let rec go () =
    if (not !close) && not (Queue.is_empty conn.slots) then
      match (Queue.peek conn.slots).out with
      | None -> ()
      | Some bytes ->
        let s = Queue.pop conn.slots in
        conn.wdata <- conn.wdata ^ bytes;
        if s.close_conn then close := true else go ()
  in
  go ();
  !close

let flush_conn conn =
  if conn.wdata <> "" then begin
    let b = Bytes.of_string conn.wdata in
    match Unix.write conn.fd b 0 (Bytes.length b) with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception _ -> conn.closing <- true
    | n -> conn.wdata <- String.sub conn.wdata n (String.length conn.wdata - n)
  end

let expire_slots t conn now =
  Queue.iter
    (fun s ->
      if s.out = None && now > s.deadline then begin
        Atomic.set s.cancelled true;
        t.stats.timeouts <- t.stats.timeouts + 1;
        s.out <- Some (s.render (Protocol.err Json.Null "timeout"))
      end)
    conn.slots

(* -- the loop ------------------------------------------------------------ *)

let drain_completions t =
  Mutex.lock t.cm;
  let pending = Queue.copy t.completions in
  Queue.clear t.completions;
  Mutex.unlock t.cm;
  Queue.iter
    (fun (conn_id, slot, resp, quit) ->
      (match Hashtbl.find_opt t.conns conn_id with
      | Some _ when not (Atomic.get slot.cancelled) ->
        slot.out <- Some (slot.render resp)
      | _ -> ());
      if quit then t.stopping <- true)
    pending

let stop t =
  t.stopping <- true;
  wake t

let run t =
  start_updater t;
  let drainbuf = Bytes.create 256 in
  let rec loop () =
    let conn_fds = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    let read_fds =
      t.wake_rd
      :: (if t.stopping then [] else List.map fst t.listeners)
      @ List.filter_map
          (fun c -> if c.closing then None else Some c.fd)
          conn_fds
    in
    let write_fds =
      List.filter_map (fun c -> if c.wdata <> "" then Some c.fd else None)
        conn_fds
    in
    let now = Unix.gettimeofday () in
    let next_deadline =
      List.fold_left
        (fun acc c ->
          Queue.fold
            (fun acc s -> if s.out = None then Float.min acc s.deadline else acc)
            acc c.slots)
        (now +. 0.5) conn_fds
    in
    let timeout = Float.max 0.005 (Float.min 0.5 (next_deadline -. now)) in
    let readable, writable, _ =
      try Unix.select read_fds write_fds [] timeout
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    (* self-pipe: completions are ready *)
    if List.mem t.wake_rd readable then begin
      (try
         while Unix.read t.wake_rd drainbuf 0 (Bytes.length drainbuf) > 0 do
           ()
         done
       with _ -> ());
      ()
    end;
    drain_completions t;
    (* new connections *)
    if not t.stopping then
      List.iter
        (fun (lfd, kind) ->
          if List.mem lfd readable then accept_new t (lfd, kind))
        t.listeners;
    (* input *)
    Hashtbl.iter
      (fun _ c -> if List.mem c.fd readable then read_conn t c)
      t.conns;
    (* deadlines *)
    let now = Unix.gettimeofday () in
    Hashtbl.iter (fun _ c -> expire_slots t c now) t.conns;
    (* output: promote ordered responses, then write what the kernel
       will take *)
    let to_close = ref [] in
    Hashtbl.iter
      (fun _ c ->
        let close_after = promote_slots c in
        if close_after then c.closing <- true;
        if c.wdata <> "" && (List.mem c.fd writable || not (List.mem c.fd write_fds))
        then flush_conn c;
        if c.closing && c.wdata = "" then to_close := c :: !to_close)
      t.conns;
    List.iter (fun c -> close_conn t c) !to_close;
    if t.stopping then begin
      (* stop accepting, flush what remains, then leave *)
      let unflushed =
        Hashtbl.fold
          (fun _ c acc -> acc || c.wdata <> "" || not (Queue.is_empty c.slots))
          t.conns false
      in
      if unflushed then loop ()
    end
    else loop ()
  in
  (try loop ()
   with e ->
     t.stopping <- true;
     stop_updater t;
     Pool.stop t.gen.gpool;
     raise e);
  List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) t.listeners;
  Hashtbl.iter (fun _ c -> try Unix.close c.fd with _ -> ()) t.conns;
  Hashtbl.reset t.conns;
  stop_updater t;
  Pool.stop t.gen.gpool;
  (try Unix.close t.wake_rd with _ -> ());
  (try Unix.close t.wake_wr with _ -> ());
  match t.config.unix_path with
  | Some p -> ( try Unix.unlink p with _ -> ())
  | None -> ()
