(** The profiler (§4.3): records every relational operation the runtime
    executes — time taken, node counts and (optionally) per-level shapes
    of the operand and result BDDs.

    The paper writes events into an SQL database browsed through CGI
    scripts; this recorder keeps them in memory and {!Report} renders the
    same three views (overview, per-operation, per-execution shape) as a
    static HTML file, plus CSV and SQL dumps. *)

type t

type row = {
  seq : int;  (** execution order *)
  event : Jedd_relation.Universe.op_event;
}

(** Aggregate per (operation, label) pair — the paper's overview view,
    extended with the BDD-layer costs (operation-cache activity and GC
    time) attributed to the operation. *)
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
  reorders : int;  (** variable-reorder passes during the operation *)
  reorder_swaps : int;  (** adjacent level swaps performed *)
  reorder_millis : float;
  mt_cache_hits : int;  (** mtbdd backend: terminal-apply cache hits *)
  mt_cache_misses : int;
  mt_terminals : int;
      (** mtbdd backend: high-water mark of distinct terminal values
          observed across the executions (a gauge) *)
}

val create : unit -> t

val attach :
  t -> Jedd_relation.Universe.t -> level:Jedd_relation.Universe.profile_level -> unit
(** Subscribe this recorder to a universe's operation stream. *)

val detach : Jedd_relation.Universe.t -> unit

val record : t -> Jedd_relation.Universe.op_event -> unit
(** Record an event directly (used by the interpreter for events that do
    not originate in the relation runtime, e.g. iteration). *)

val rows : t -> row list
(** All recorded events, oldest first. *)

val summaries : t -> summary list
(** Sorted by total time, most expensive first. *)

val total_operations : t -> int
val clear : t -> unit

val runtime_stats : Jedd_relation.Universe.t -> (string * float) list
(** Lifetime BDD-layer counters of a universe as flat (name, value)
    pairs — cache hits/misses/evictions, GC and growth work, reorder
    passes/swaps, the mtbdd terminal-store counters ([mt_cache_*],
    [mt_distinct_terminals], [mt_live_nodes]; zero in-core), and the
    parallel-mode counters of frozen multi-reader serving ([parallel_active],
    [parallel_domains_used], [parallel_chunk_refills], and — while
    parallel mode is active — the per-domain operation-cache slot
    counters [slot<i>_cache_hits], ...).  Integer counters are widened
    to floats; [backend] is 0 in-core, 3 mtbdd (1 and 2 named the
    retired out-of-core and hybrid engines and are not reused).
    Shared by the jeddd [stats] verb and the bench JSON reports. *)
