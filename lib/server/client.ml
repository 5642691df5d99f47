(* Synchronous client for the jeddd socket protocol: one request line
   out, one response line back, over a Unix or TCP socket.  Used by
   jeddq, the server tests, and jbench's query workload. *)

type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

exception Server_error of string
(** Raised by {!request_ok} when the response carries [ok: false]. *)

exception Connection_refused of string
(** Connect (after any retries) could not reach the server: refused,
    no such socket, or unresolvable host.  Distinct from
    {!Server_error} so callers can exit with a dedicated code. *)

let of_fd fd =
  {
    fd;
    ic = Unix.in_channel_of_descr fd;
    oc = Unix.out_channel_of_descr fd;
  }

let connect_once socket_path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket_path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  of_fd fd

let resolve_inet host port =
  match Unix.getaddrinfo host (string_of_int port)
          [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
  with
  | [] -> raise (Connection_refused (Printf.sprintf "cannot resolve %s" host))
  | ai :: _ -> ai.Unix.ai_addr

let connect_tcp_once host port =
  let addr = resolve_inet host port in
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  (try
     Unix.connect fd addr;
     Unix.setsockopt fd Unix.TCP_NODELAY true
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  of_fd fd

(* Retry with exponential backoff: [retries] extra attempts after the
   first, sleeping [delay], [2*delay], ... between them.  A connection
   that cannot be established at all surfaces as Connection_refused. *)
let with_retries ~retries ~delay what f =
  let rec go attempt delay =
    try f ()
    with
    | Unix.Unix_error ((ECONNREFUSED | ENOENT | ETIMEDOUT | EHOSTUNREACH), _, _)
    | Connection_refused _
    when attempt < retries
    ->
      Unix.sleepf delay;
      go (attempt + 1) (delay *. 2.)
    | Unix.Unix_error (e, _, _) ->
      raise
        (Connection_refused
           (Printf.sprintf "cannot connect to %s: %s" what
              (Unix.error_message e)))
  in
  go 0 delay

let connect ?(retries = 0) ?(retry_delay = 0.05) socket_path =
  with_retries ~retries ~delay:retry_delay socket_path (fun () ->
      connect_once socket_path)

let connect_tcp ?(retries = 0) ?(retry_delay = 0.05) host port =
  with_retries ~retries ~delay:retry_delay
    (Printf.sprintf "%s:%d" host port)
    (fun () -> connect_tcp_once host port)

let close c = try Unix.close c.fd with _ -> ()

let set_timeout c seconds =
  (* bounds every blocking read/write on the connection *)
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO seconds;
  Unix.setsockopt_float c.fd Unix.SO_SNDTIMEO seconds

let request c (v : Json.t) : Json.t =
  output_string c.oc (Json.to_string v);
  output_char c.oc '\n';
  flush c.oc;
  match input_line c.ic with
  | exception End_of_file -> raise (Server_error "connection closed by server")
  | line -> Json.of_string line

(* Build a request object; [verb] first so dumps read naturally. *)
let req verb fields = Json.Obj (("verb", Json.String verb) :: fields)

let request_ok c v =
  let resp = request c v in
  match Json.member "ok" resp with
  | Some (Json.Bool true) -> resp
  | _ ->
    let msg =
      match Json.member "error" resp with
      | Some (Json.String m) -> m
      | _ -> "request failed"
    in
    raise (Server_error msg)

let ping c = ignore (request_ok c (req "ping" []))

let count c rel =
  match
    Json.member "tuples" (request_ok c (req "count" [ ("rel", Json.String rel) ]))
  with
  | Some (Json.Int n) -> n
  | _ -> raise (Server_error "malformed count response")

let pointsto c var =
  match
    Json.member "heaps" (request_ok c (req "pointsto" [ ("var", Json.Int var) ]))
  with
  | Some (Json.List hs) ->
    List.filter_map (function Json.Int h -> Some h | _ -> None) hs
  | _ -> raise (Server_error "malformed pointsto response")

let shutdown c = ignore (request_ok c (req "shutdown" []))
