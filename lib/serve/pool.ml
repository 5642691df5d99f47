(* The query worker: one OCaml domain evaluating protocol requests, in
   the order the front end queued them, against one universe (frozen or
   not).

   On a frozen universe queries build scratch nodes that no refcount
   tracks; the worker reclaims them itself with [frozen_sweep] between
   two jobs, once more than [sweep_threshold] of them have accumulated
   beyond the pinned arena.  Between jobs it holds no node references,
   and it is the only evaluator of the universe, so nothing else can be
   touching the node store. *)

module M = Jedd_bdd.Manager
module U = Jedd_relation.Universe
module Json = Jedd_server.Json
module Protocol = Jedd_server.Protocol
module Qeval = Jedd_server.Qeval
module Snapshot = Jedd_store.Snapshot

type job = {
  request : Json.t;
  cancelled : bool Atomic.t; (* set by the front end on timeout/hangup *)
  deliver : Protocol.outcome -> unit; (* runs on the worker domain *)
}

type t = {
  qeval : Qeval.t;
  manager : M.t;
  sweep_threshold : int; (* scratch nodes tolerated before a sweep; 0 = off *)
  jobs : job Queue.t;
  m : Mutex.t;
  c : Condition.t;
  mutable stopping : bool;
  mutable worker : unit Domain.t option;
  requests : int Atomic.t;
  errors : int Atomic.t;
  dropped : int Atomic.t; (* cancelled before the worker picked them up *)
}

let is_error = function
  | Protocol.Reply (Json.Obj kvs) | Protocol.Quit (Json.Obj kvs) ->
    List.assoc_opt "ok" kvs = Some (Json.Bool false)
  | _ -> false

let maybe_sweep t =
  if
    t.sweep_threshold > 0 && M.frozen t.manager
    && M.live_nodes t.manager - M.frozen_live_nodes t.manager
       > t.sweep_threshold
  then M.frozen_sweep t.manager

let run_job t job =
  let outcome =
    try Qeval.eval t.qeval job.request
    with e ->
      Protocol.Reply
        (Protocol.err
           (Protocol.request_id job.request)
           (Printf.sprintf "internal error: %s" (Printexc.to_string e)))
  in
  Atomic.incr t.requests;
  if is_error outcome then Atomic.incr t.errors;
  if not (Atomic.get job.cancelled) then job.deliver outcome

(* Pop jobs until [stop] and an empty queue; sweep after each one. *)
let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.jobs && not t.stopping do
    Condition.wait t.c t.m
  done;
  let job = Queue.take_opt t.jobs in
  Mutex.unlock t.m;
  match job with
  | None -> ()
  | Some job ->
    if Atomic.get job.cancelled then Atomic.incr t.dropped
    else begin
      run_job t job;
      maybe_sweep t
    end;
    worker_loop t

let create ?(sweep_threshold = 1 lsl 20) qeval =
  let u = (Qeval.world qeval).Protocol.snap.Snapshot.u in
  let t =
    {
      qeval;
      manager = U.manager u;
      sweep_threshold;
      jobs = Queue.create ();
      m = Mutex.create ();
      c = Condition.create ();
      stopping = false;
      worker = None;
      requests = Atomic.make 0;
      errors = Atomic.make 0;
      dropped = Atomic.make 0;
    }
  in
  t.worker <- Some (Domain.spawn (fun () -> worker_loop t));
  t

let submit t ~request ~cancelled ~deliver =
  Mutex.lock t.m;
  let accepted = not t.stopping in
  if accepted then begin
    Queue.push { request; cancelled; deliver } t.jobs;
    Condition.signal t.c
  end;
  Mutex.unlock t.m;
  accepted

(* Drain the queue, then join the worker. *)
let stop t =
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.signal t.c;
  Mutex.unlock t.m;
  Option.iter Domain.join t.worker;
  t.worker <- None

let queue_depth t = Queue.length t.jobs
let requests t = Atomic.get t.requests
let errors t = Atomic.get t.errors

let stats_fields t : (string * Json.t) list =
  [
    ("frozen", Json.Bool (M.frozen t.manager));
    ("frozen_sweeps", Json.Int (M.frozen_sweep_count t.manager));
    ("dropped", Json.Int (Atomic.get t.dropped));
  ]
