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
  reorders : int;
  reorder_swaps : int;
  reorder_millis : float;
  mt_cache_hits : int;
  mt_cache_misses : int;
  mt_terminals : int;
      (* high-water mark of distinct terminal values over the executions *)
}

(* One recorder may receive events from several domains at once (query
   workers sharing a frozen universe), so the event list is
   mutex-protected. *)
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
            reorders = 0;
            reorder_swaps = 0;
            reorder_millis = 0.0;
            mt_cache_hits = 0;
            mt_cache_misses = 0;
            mt_terminals = 0;
          }
      in
      let hits, misses, gcs, gc_millis, reorders, rswaps, rmillis =
        match e.U.bdd with
        | Some d ->
          ( d.U.cache_hits,
            d.U.cache_misses,
            d.U.gcs,
            d.U.gc_millis,
            d.U.reorders,
            d.U.reorder_swaps,
            d.U.reorder_millis )
        | None -> (0, 0, 0, 0.0, 0, 0, 0.0)
      in
      let mt_hits, mt_misses, mt_terms =
        match e.U.bdd with
        | Some d -> (d.U.mt_cache_hits, d.U.mt_cache_misses, d.U.mt_terminals)
        | None -> (0, 0, 0)
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
          reorders = current.reorders + reorders;
          reorder_swaps = current.reorder_swaps + rswaps;
          reorder_millis = current.reorder_millis +. rmillis;
          mt_cache_hits = current.mt_cache_hits + mt_hits;
          mt_cache_misses = current.mt_cache_misses + mt_misses;
          mt_terminals = max current.mt_terminals mt_terms;
        })
    events;
  Hashtbl.fold (fun _ s acc -> s :: acc) table []
  |> List.sort (fun a b -> compare b.total_millis a.total_millis)

(* Lifetime counter snapshot of a universe's BDD layer, as flat
   (name, value) pairs: the cache/GC/growth/reorder counters of the
   manager, the terminal-store counters of an mtbdd backend, and the
   parallel-mode counters (domains that claimed a slot, allocation-chunk
   refills, and the per-domain cache slots while parallel mode is
   active; they merge into the base counters on [exit_parallel]).  This
   is the payload of the query server's [stats] verb and of the bench
   JSON reports, so the numbers users see in both places are the same
   counters the profiler attributes per-operation above. *)
let runtime_stats u =
  let module U = Jedd_relation.Universe in
  let module M = Jedd_bdd.Manager in
  let m = U.manager u in
  let par = M.par_stats m in
  let hits, misses, evictions = M.cache_totals m in
  let mt_hits, mt_misses, mt_terminals, mt_live, mt_peak =
    match Jedd_relation.Backend.mt_store (U.backend u) with
    | None -> (0, 0, 0, 0, 0)
    | Some st ->
      let module Mt = Jedd_mtbdd.Mtbdd in
      let h, ms, _ev = Mt.cache_totals st in
      (h, ms, Mt.distinct_terminals st, Mt.live_nodes st, Mt.peak_nodes st)
  in
  [
    ( "backend",
      float_of_int (match U.backend_kind u with `Incore -> 0 | `Mtbdd -> 3)
    );
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
    ("reorders", float_of_int (M.reorder_count m));
    ("reorder_swaps", float_of_int (M.swap_count m));
    ("reorder_millis", M.reorder_millis m);
    ("mt_cache_hits", float_of_int mt_hits);
    ("mt_cache_misses", float_of_int mt_misses);
    ("mt_distinct_terminals", float_of_int mt_terminals);
    ("mt_live_nodes", float_of_int mt_live);
    ("mt_peak_nodes", float_of_int mt_peak);
    ("parallel_active", if par.M.par_active then 1.0 else 0.0);
    ("parallel_domains_used", float_of_int par.M.par_domains);
    ("parallel_chunk_refills", float_of_int par.M.par_chunk_refills);
  ]
  @ (Array.to_list (M.slot_cache_stats m)
    |> List.concat_map (fun (slot, h, ms, st, ev) ->
           [
             (Printf.sprintf "slot%d_cache_hits" slot, float_of_int h);
             (Printf.sprintf "slot%d_cache_misses" slot, float_of_int ms);
             (Printf.sprintf "slot%d_cache_stores" slot, float_of_int st);
             (Printf.sprintf "slot%d_cache_evictions" slot, float_of_int ev);
           ]))
