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
  reorders : int;
  reorder_swaps : int;
  reorder_millis : float;
  mt_cache_hits : int;
  mt_cache_misses : int;
  mt_per_tag : tag_delta list;
  mt_terminals : int;
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
  backend : Backend.t;
  engine : Jedd_reorder.Reorder.t;
  uid : int;
  mutable level : profile_level;
  mutable on_op : (op_event -> unit) option;
  mutable scratch_counter : int;
}

let counter = ref 0

let create ?(node_capacity = 1 lsl 16) ?node_limit ?(backend = `Incore) () =
  incr counter;
  let manager = Jedd_bdd.Manager.create ~node_capacity ?node_limit () in
  {
    manager;
    backend = Backend.make backend manager;
    engine = Jedd_reorder.Reorder.create manager;
    uid = !counter;
    level = Off;
    on_op = None;
    scratch_counter = 0;
  }

let uid u = u.uid

let manager u = u.manager
let backend u = u.backend
let backend_kind u = Backend.kind u.backend
let reorder_engine u = u.engine

let set_node_limit u limit = Jedd_bdd.Manager.set_node_limit u.manager limit

let register_block u ~name ~vars =
  Jedd_reorder.Reorder.register_block u.engine ~name ~vars

let frozen u = Jedd_bdd.Manager.frozen u.manager

(* Dynamic reordering rewires the in-core node store in place; the mtbdd
   store bakes levels into its nodes, so both entry points degrade to
   no-ops there. *)
let reorder ?(trigger = "explicit") u =
  if frozen u then
    raise
      (Jedd_bdd.Manager.Frozen
         "Universe.reorder: the universe is frozen (read-only serving mode)");
  if Backend.in_place (backend_kind u) then
    Jedd_reorder.Reorder.sift ~trigger u.engine

let set_auto_reorder u threshold =
  if Backend.in_place (backend_kind u) then
    match threshold with
    | Some n -> Jedd_reorder.Reorder.install_auto u.engine ~threshold:n
    | None -> Jedd_reorder.Reorder.disable_auto u.engine

(* Snapshot the monotone counters of the manager and (when present) the
   mtbdd store; [bdd_delta_since] turns two snapshots into the
   per-operation delta the profiler records. *)
type bdd_snapshot = {
  snap_stats : Jedd_bdd.Manager.cache_stat list;
  snap_gcs : int;
  snap_gc_millis : float;
  snap_grows : int;
  snap_grow_millis : float;
  snap_reorders : int;
  snap_swaps : int;
  snap_reorder_millis : float;
  snap_mt_stats : Jedd_mtbdd.Mtbdd.cache_stat list;
  snap_mt_terminals : int;
}

let bdd_snapshot u =
  let m = u.manager in
  let mt_stats, mt_terminals =
    match Backend.mt_store u.backend with
    | None -> ([], 0)
    | Some st ->
      (Jedd_mtbdd.Mtbdd.cache_stats st, Jedd_mtbdd.Mtbdd.distinct_terminals st)
  in
  {
    snap_stats = Jedd_bdd.Manager.cache_stats m;
    snap_gcs = Jedd_bdd.Manager.gc_count m;
    snap_gc_millis = Jedd_bdd.Manager.gc_millis m;
    snap_grows = Jedd_bdd.Manager.grow_count m;
    snap_grow_millis = Jedd_bdd.Manager.grow_millis m;
    snap_reorders = Jedd_bdd.Manager.reorder_count m;
    snap_swaps = Jedd_bdd.Manager.swap_count m;
    snap_reorder_millis = Jedd_bdd.Manager.reorder_millis m;
    snap_mt_stats = mt_stats;
    snap_mt_terminals = mt_terminals;
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
  let mt_per_tag =
    List.map2
      (fun (b : Jedd_mtbdd.Mtbdd.cache_stat)
           (a : Jedd_mtbdd.Mtbdd.cache_stat) ->
        { tag = a.name; hits = a.hits - b.hits; misses = a.misses - b.misses })
      before.snap_mt_stats after.snap_mt_stats
    |> List.filter (fun d -> d.hits <> 0 || d.misses <> 0)
  in
  let mt_sum f =
    List.fold_left2
      (fun acc (b : Jedd_mtbdd.Mtbdd.cache_stat)
           (a : Jedd_mtbdd.Mtbdd.cache_stat) -> acc + f a - f b)
      0 before.snap_mt_stats after.snap_mt_stats
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
    reorders = after.snap_reorders - before.snap_reorders;
    reorder_swaps = after.snap_swaps - before.snap_swaps;
    reorder_millis =
      after.snap_reorder_millis -. before.snap_reorder_millis;
    mt_cache_hits = mt_sum (fun (s : Jedd_mtbdd.Mtbdd.cache_stat) -> s.hits);
    mt_cache_misses =
      mt_sum (fun (s : Jedd_mtbdd.Mtbdd.cache_stat) -> s.misses);
    mt_per_tag;
    (* a gauge, not a counter: the current number of distinct weights *)
    mt_terminals = after.snap_mt_terminals;
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

let checkpoint u =
  let (Backend.Engine e) = u.backend in
  e.ops.checkpoint ()

(* -- frozen (read-only serving) mode ------------------------------------ *)

let freeze u =
  let kind = backend_kind u in
  if not (Backend.in_place kind) then
    invalid_arg
      (Printf.sprintf
         "Universe.freeze: the %s backend cannot be frozen (only the \
          in-core node table has a read-only form)"
         (Backend.kind_name kind));
  Jedd_reorder.Reorder.disable_auto u.engine;
  Jedd_bdd.Manager.freeze u.manager
