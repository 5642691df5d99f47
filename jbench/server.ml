(* The server processes the query and edit workloads talk to, and the
   client side that starts, reads and stops them.  A server is this same
   executable run with [serve-query] or [serve-edit]: it builds its state
   through the library (Snapshot.of_bytes ~freeze for query; a Live
   session for edit), binds Jedd_serve.Serve to an ephemeral TCP port on
   127.0.0.1, prints one READY line with the port and its timed set-up
   steps, and serves until a shutdown request. *)

module Json = Jedd_server.Json
module Client = Jedd_server.Client
module Snapshot = Jedd_store.Snapshot
module Serve = Jedd_serve.Serve
module Suite = Jedd_analyses.Suite
module Live = Jedd_analyses.Live
module Edit = Jedd_incr.Edit

let config =
  {
    Serve.default_config with
    Serve.tcp = Some ("127.0.0.1", 0);
    workers = 1;
    cache_capacity = 4096;
  }

(* Time a set-up step; the READY line carries the timings. *)
let steps = ref []

let step name f =
  let t0 = Common.now () in
  let v = f () in
  steps := (name, Json.Float (Common.ms_since t0)) :: !steps;
  v

let ready server extra =
  let port = Option.get (Serve.tcp_port server) in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("ready", Json.Int port);
            ("steps", Json.Obj (List.rev !steps));
            ("extra", Json.Obj extra);
          ]));
  flush stdout;
  Serve.run server

let serve_query snapshot_file =
  let bytes = In_channel.with_open_bin snapshot_file In_channel.input_all in
  let snap =
    step "store.load" (fun () ->
        Snapshot.of_bytes ~backend:`Incore ~freeze:true bytes)
  in
  let hash = Digest.to_hex (Digest.string bytes) in
  let server = Serve.create ~config ~universe_hash:hash snap in
  ready server []

let serve_edit seed =
  let p = Pipeline.program seed in
  let session = step "incr.create" (fun () -> Live.create ~backend:`Incore p) in
  let bytes =
    step "store.save" (fun () ->
        Snapshot.to_bytes
          (Suite.snapshot ~meta:[ ("jedd.generation", "0") ] (Live.inst session)))
  in
  let snap =
    step "store.load" (fun () ->
        Snapshot.of_bytes ~backend:`Incore ~freeze:true bytes)
  in
  let hash = Digest.to_hex (Digest.string bytes) in
  let live = { Serve.session; initial_bytes = bytes; publish = None } in
  let server = Serve.create ~config ~live ~universe_hash:hash snap in
  ready server [ ("snapshot_bytes", Json.Int (String.length bytes)) ]

(* -- client side ------------------------------------------------------- *)

type handle = {
  pid : int;
  conn : Client.t;
  out : in_channel;
  steps : (string * float) list;
  extra : (string * Json.t) list;
}

let children : int list ref = ref []

(* Kill and reap anything still running (an exception path). *)
let reap_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with _ -> ());
      try ignore (Unix.waitpid [] pid) with _ -> ())
    !children;
  children := []

let () = at_exit reap_all

let float_of_json = function Json.Float f -> f | Json.Int i -> float_of_int i | _ -> nan

(* The server inherits the environment minus the variables that would
   pick its backend or domain count: Serve reloads each new generation
   with Snapshot.of_bytes, which reads JEDD_BACKEND. *)
let start args =
  let exe = Sys.executable_name in
  let env =
    Array.of_list
      (List.filter
         (fun kv ->
           not
             (String.starts_with ~prefix:"JEDD_BACKEND=" kv
             || String.starts_with ~prefix:"JEDD_JOBS=" kv))
         (Array.to_list (Unix.environment ())))
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) env Unix.stdin wr
      Unix.stderr
  in
  children := pid :: !children;
  Unix.close wr;
  let out = Unix.in_channel_of_descr rd in
  let line =
    try input_line out
    with End_of_file -> failwith ("server exited before READY: " ^ String.concat " " args)
  in
  let v = Json.of_string line in
  let port = Option.get (Option.bind (Json.member "ready" v) Json.to_int_opt) in
  let steps =
    match Json.member "steps" v with
    | Some (Json.Obj kvs) -> List.map (fun (k, x) -> (k, float_of_json x)) kvs
    | _ -> []
  in
  let extra = match Json.member "extra" v with Some (Json.Obj kvs) -> kvs | _ -> [] in
  let conn = Client.connect_tcp ~retries:20 "127.0.0.1" port in
  Client.set_timeout conn 120.;
  { pid; conn; out; steps; extra }

(* The server's set-up steps as spans, one after another from [t0]. *)
let trace_steps h ~t0 =
  ignore
    (List.fold_left
       (fun t (name, ms) ->
         Trace.add_measured ~name ~t0:t ~ms;
         t +. (ms /. 1000.))
       t0 h.steps)

let request h v = Client.request h.conn v

(* One request line out, one reply line back, unparsed. *)
let roundtrip h line =
  output_string h.conn.Client.oc line;
  output_char h.conn.Client.oc '\n';
  flush h.conn.Client.oc;
  input_line h.conn.Client.ic

let peak_rss_mb h = Common.peak_rss_mb (string_of_int h.pid)

let stop h =
  (try ignore (Client.request h.conn (Client.req "shutdown" [])) with _ -> ());
  Client.close h.conn;
  ignore (Unix.waitpid [] h.pid);
  children := List.filter (fun p -> p <> h.pid) !children;
  close_in_noerr h.out

(* -- edits on the wire (the shape Serve.edit_of_json reads) ------------- *)

let edit_json (e : Edit.t) =
  let i n = Json.Int n in
  let op name fields = Json.Obj (("op", Json.String name) :: fields) in
  match e with
  | Edit.Add_class { superclass } ->
    op "add_class"
      [ ("superclass", match superclass with Some c -> i c | None -> Json.Null) ]
  | Add_method { cls; signature; n_vars; entry } ->
    op "add_method"
      [ ("cls", i cls); ("signature", i signature); ("n_vars", i n_vars);
        ("entry", Json.Bool entry) ]
  | Add_field -> op "add_field" []
  | Add_alloc { var; cls } -> op "add_alloc" [ ("var", i var); ("cls", i cls) ]
  | Add_assign { src; dst } -> op "add_assign" [ ("src", i src); ("dst", i dst) ]
  | Add_store { src; base; field } ->
    op "add_store" [ ("src", i src); ("base", i base); ("field", i field) ]
  | Add_load { base; field; dst } ->
    op "add_load" [ ("base", i base); ("field", i field); ("dst", i dst) ]
  | Add_callsite { recv; signature; in_method } ->
    op "add_callsite"
      [ ("recv", i recv); ("signature", i signature); ("in_method", i in_method) ]
  | Remove_assign { src; dst } -> op "remove_assign" [ ("src", i src); ("dst", i dst) ]
  | Remove_store { src; base; field } ->
    op "remove_store" [ ("src", i src); ("base", i base); ("field", i field) ]
  | Remove_load { base; field; dst } ->
    op "remove_load" [ ("base", i base); ("field", i field); ("dst", i dst) ]
  | Remove_callsite { callsite } -> op "remove_callsite" [ ("callsite", i callsite) ]
  | Remove_method { meth } -> op "remove_method" [ ("meth", i meth) ]
  | Remove_class { cls } -> op "remove_class" [ ("cls", i cls) ]
