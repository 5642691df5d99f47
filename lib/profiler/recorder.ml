module U = Jedd_relation.Universe

type row = { seq : int; event : U.op_event }

type summary = {
  op : string;
  label : string;
  executions : int;
  total_millis : float;
  max_result_nodes : int;
  total_result_tuples : int;
  cache_hits : int;
  cache_misses : int;
  gcs : int;
  gc_millis : float;
}

(* One recorder may receive events from two threads at once (the serve
   pool's worker domain and the live updater thread), so the event list
   is mutex-protected. *)
type t = { lock : Mutex.t; mutable events : row list; mutable next_seq : int }

let create () = { lock = Mutex.create (); events = []; next_seq = 0 }

let record t event =
  Mutex.lock t.lock;
  t.events <- { seq = t.next_seq; event } :: t.events;
  t.next_seq <- t.next_seq + 1;
  Mutex.unlock t.lock

let attach t u ~level =
  U.set_profile_level u level;
  U.set_on_op u (Some (record t))

let detach u =
  U.set_profile_level u U.Off;
  U.set_on_op u None

let rows t =
  Mutex.lock t.lock;
  let r = List.rev t.events in
  Mutex.unlock t.lock;
  r

let total_operations t = t.next_seq

let clear t =
  Mutex.lock t.lock;
  t.events <- [];
  t.next_seq <- 0;
  Mutex.unlock t.lock

let summaries t =
  Mutex.lock t.lock;
  let events = t.events in
  Mutex.unlock t.lock;
  let table = Hashtbl.create 32 in
  List.iter
    (fun { event = e; _ } ->
      let key = (e.U.op, e.U.label) in
      let current =
        match Hashtbl.find_opt table key with
        | Some s -> s
        | None ->
          {
            op = e.U.op;
            label = e.U.label;
            executions = 0;
            total_millis = 0.0;
            max_result_nodes = 0;
            total_result_tuples = 0;
            cache_hits = 0;
            cache_misses = 0;
            gcs = 0;
            gc_millis = 0.0;
          }
      in
      let hits, misses, gcs, gc_millis =
        match e.U.bdd with
        | Some d -> (d.U.cache_hits, d.U.cache_misses, d.U.gcs, d.U.gc_millis)
        | None -> (0, 0, 0, 0.0)
      in
      Hashtbl.replace table key
        {
          current with
          executions = current.executions + 1;
          total_millis = current.total_millis +. e.U.millis;
          max_result_nodes = max current.max_result_nodes e.U.result_nodes;
          total_result_tuples =
            current.total_result_tuples + e.U.result_tuples;
          cache_hits = current.cache_hits + hits;
          cache_misses = current.cache_misses + misses;
          gcs = current.gcs + gcs;
          gc_millis = current.gc_millis +. gc_millis;
        })
    events;
  Hashtbl.fold (fun _ s acc -> s :: acc) table []
  |> List.sort (fun a b -> compare b.total_millis a.total_millis)

(* Lifetime counter snapshot of a universe's BDD layer, as flat
   (name, value) pairs: the node, cache, GC and growth counters of the
   manager.  This
   is the payload of the query server's [stats] verb and of the bench
   JSON reports, so the numbers users see in both places are the same
   counters the profiler attributes per-operation above. *)
let runtime_stats u =
  let module U = Jedd_relation.Universe in
  let module M = Jedd_bdd.Manager in
  let m = U.manager u in
  let hits, misses, evictions = M.cache_totals m in
  [
    ("live_nodes", float_of_int (M.live_nodes m));
    ("peak_nodes", float_of_int (M.peak_nodes m));
    ("num_vars", float_of_int (M.num_vars m));
    ("cache_hits", float_of_int hits);
    ("cache_misses", float_of_int misses);
    ("cache_evictions", float_of_int evictions);
    ("gcs", float_of_int (M.gc_count m));
    ("gc_millis", M.gc_millis m);
    ("grows", float_of_int (M.grow_count m));
    ("grow_millis", M.grow_millis m);
  ]
