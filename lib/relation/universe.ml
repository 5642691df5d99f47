type tag_delta = { tag : string; hits : int; misses : int }

type bdd_delta = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  per_tag : tag_delta list;
  gcs : int;
  gc_millis : float;
  grows : int;
  grow_millis : float;
}

type op_event = {
  op : string;
  label : string;
  millis : float;
  operand_nodes : int list;
  result_nodes : int;
  result_tuples : int;
  shapes : (int array * int array list) option;
  bdd : bdd_delta option;
}

type profile_level = Off | Counts | Shapes

type t = {
  manager : Jedd_bdd.Manager.t;
  uid : int;
  live : int Atomic.t;
  mutable level : profile_level;
  mutable on_op : (op_event -> unit) option;
  mutable scratch_counter : int;
}

let counter = ref 0

let create ?(node_capacity = 1 lsl 16) ?node_limit () =
  incr counter;
  {
    manager = Jedd_bdd.Manager.create ~node_capacity ?node_limit ();
    uid = !counter;
    live = Atomic.make 0;
    level = Off;
    on_op = None;
    scratch_counter = 0;
  }

let uid u = u.uid

let manager u = u.manager
let live_roots u = u.live
let frozen u = Jedd_bdd.Manager.frozen u.manager

(* Snapshot the monotone counters of the manager; [bdd_delta_since]
   turns two snapshots into the per-operation delta the profiler
   records. *)
type bdd_snapshot = {
  snap_stats : Jedd_bdd.Manager.cache_stat list;
  snap_gcs : int;
  snap_gc_millis : float;
  snap_grows : int;
  snap_grow_millis : float;
}

let bdd_snapshot u =
  let m = u.manager in
  {
    snap_stats = Jedd_bdd.Manager.cache_stats m;
    snap_gcs = Jedd_bdd.Manager.gc_count m;
    snap_gc_millis = Jedd_bdd.Manager.gc_millis m;
    snap_grows = Jedd_bdd.Manager.grow_count m;
    snap_grow_millis = Jedd_bdd.Manager.grow_millis m;
  }

let bdd_delta_since u before =
  let after = bdd_snapshot u in
  let per_tag =
    List.map2
      (fun (b : Jedd_bdd.Manager.cache_stat)
           (a : Jedd_bdd.Manager.cache_stat) ->
        { tag = a.name; hits = a.hits - b.hits; misses = a.misses - b.misses })
      before.snap_stats after.snap_stats
    |> List.filter (fun d -> d.hits <> 0 || d.misses <> 0)
  in
  let sum f =
    List.fold_left2
      (fun acc (b : Jedd_bdd.Manager.cache_stat)
           (a : Jedd_bdd.Manager.cache_stat) -> acc + f a - f b)
      0 before.snap_stats after.snap_stats
  in
  {
    cache_hits = sum (fun (s : Jedd_bdd.Manager.cache_stat) -> s.hits);
    cache_misses = sum (fun (s : Jedd_bdd.Manager.cache_stat) -> s.misses);
    cache_evictions =
      sum (fun (s : Jedd_bdd.Manager.cache_stat) -> s.evictions);
    per_tag;
    gcs = after.snap_gcs - before.snap_gcs;
    gc_millis = after.snap_gc_millis -. before.snap_gc_millis;
    grows = after.snap_grows - before.snap_grows;
    grow_millis = after.snap_grow_millis -. before.snap_grow_millis;
  }

let set_profile_level u level = u.level <- level
let profile_level u = u.level
let set_on_op u hook = u.on_op <- hook

let emit_op u event =
  match u.on_op with
  | Some hook when u.level <> Off -> hook event
  | _ -> ()

let next_scratch_name u =
  u.scratch_counter <- u.scratch_counter + 1;
  Printf.sprintf "__scratch%d" u.scratch_counter

let checkpoint u = Jedd_bdd.Manager.checkpoint u.manager
let freeze u = Jedd_bdd.Manager.freeze u.manager
