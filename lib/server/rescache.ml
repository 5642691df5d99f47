(* Bounded result cache for the query path.  Keys are canonical request
   strings (verb + sorted args + universe hash — see Qeval); values are
   the successful reply's payload fields.  One table under one lock: the
   serving worker reads and fills it, and the live updater thread evicts
   a retired generation's entries from it.  Eviction is FIFO, which is
   close enough to LRU for a serving cache and needs no per-hit
   bookkeeping. *)

type t = {
  lock : Mutex.t;
  tbl : (string, (string * Json.t) list) Hashtbl.t;
  order : string Queue.t; (* insertion order, for FIFO eviction *)
  capacity : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Rescache.create: capacity must be >= 1";
  {
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    order = Queue.create ();
    capacity;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let find t key =
  Mutex.protect t.lock (fun () ->
      let r = Hashtbl.find_opt t.tbl key in
      (match r with
      | Some _ -> t.hits <- t.hits + 1
      | None -> t.misses <- t.misses + 1);
      r)

let add t key fields =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.tbl key) then begin
        if Hashtbl.length t.tbl >= t.capacity then begin
          Hashtbl.remove t.tbl (Queue.take t.order);
          t.evictions <- t.evictions + 1
        end;
        Hashtbl.add t.tbl key fields;
        Queue.add key t.order
      end)

(* Drop every entry whose key ends with [suffix].  Keys embed the
   universe hash as a "#<hex>" suffix (see Qeval.cache_key), so this is
   how a generation swap retires the old snapshot's answers from a
   cache shared across generations.  Returns the number evicted. *)
let evict_suffix t suffix =
  Mutex.protect t.lock (fun () ->
      let victims =
        Hashtbl.fold
          (fun k _ acc -> if String.ends_with ~suffix k then k :: acc else acc)
          t.tbl []
      in
      List.iter (Hashtbl.remove t.tbl) victims;
      if victims <> [] then begin
        let keep = Queue.create () in
        Queue.iter (fun k -> if Hashtbl.mem t.tbl k then Queue.add k keep) t.order;
        Queue.clear t.order;
        Queue.transfer keep t.order
      end;
      let n = List.length victims in
      t.evictions <- t.evictions + n;
      n)

let entries t = Mutex.protect t.lock (fun () -> Hashtbl.length t.tbl)
let hits t = Mutex.protect t.lock (fun () -> t.hits)
let misses t = Mutex.protect t.lock (fun () -> t.misses)
let evictions t = Mutex.protect t.lock (fun () -> t.evictions)

let stats_json t : Json.t =
  Json.Obj
    [
      ("hits", Json.Int (hits t));
      ("misses", Json.Int (misses t));
      ("evictions", Json.Int (evictions t));
      ("entries", Json.Int (entries t));
    ]
