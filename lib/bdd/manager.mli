(** Hash-consed ROBDD node store with reference counting and mark/sweep GC.

    This module is the bottom layer of the BDD package: it owns the node
    arrays, the unique table, the shared operation cache and the garbage
    collector.  Nodes are dense integer handles into flat arrays, exactly
    as in BuDDy and CUDD.  The two terminals are the constants {!zero}
    (node 0) and {!one} (node 1).

    Garbage collection runs only at safe points (between top-level
    operations, see {!Ops}); in the middle of a recursive operation the
    store grows instead, so intermediate nodes can never be collected out
    from under a computation. *)

type t
(** A BDD manager.  All nodes live inside one manager; handles from
    different managers must never be mixed (checked only by invariants,
    not by the type system, as in the C packages). *)

type node = int
(** A node handle.  [0] is the false terminal, [1] the true terminal. *)

val zero : node
val one : node

val terminal_level : int
(** Pseudo-level of the two terminals; strictly greater than any variable
    level. *)

exception Out_of_nodes
(** Raised by node allocation when the node table is full, a last-ditch
    collection recovered nothing, and the configured node budget forbids
    growing.  The manager itself remains consistent — external roots and
    their refcounts are untouched and the operation caches have been
    retired — but the operation in flight is abandoned; catch it at an
    operation boundary, release what you can, and retry under a larger
    budget. *)

val create : ?node_capacity:int -> ?node_limit:int -> unit -> t
(** [create ()] makes an empty manager with no variables.
    [node_capacity] is the initial node-array capacity (default 1 lsl 15).
    [node_limit] caps the node-table capacity: doublings that would
    overshoot it are refused and allocation raises {!Out_of_nodes}
    instead (default: unlimited).  The operation cache holds 2{^14}
    entries in sets of 4 ways. *)

val min_node_capacity : int
(** The smallest node table {!create} makes; a smaller [node_capacity]
    is raised to it. *)

val uid : t -> int
(** A process-unique id for this manager, for keying external memo
    tables that span managers. *)

val new_var : t -> int
(** Allocate a fresh variable at the bottom of the order and return its
    {e level} (0 = topmost).  Levels are handed out in allocation order
    and never change: the order is the one the allocations fix. *)

val num_vars : t -> int
(** Number of variables allocated so far. *)

val level : t -> node -> int
(** Level of a node ({!terminal_level} for terminals). *)

val low : t -> node -> node
val high : t -> node -> node

val is_terminal : node -> bool

val mk : t -> int -> node -> node -> node
(** [mk m lvl lo hi] returns the unique node [(lvl, lo, hi)], applying the
    redundancy rule ([lo == hi] returns [lo]).  [lvl] must be strictly
    smaller than the levels of [lo] and [hi]. *)

val var : t -> int -> node
(** [var m lvl] is the BDD of the single variable at [lvl]. *)

val nvar : t -> int -> node
(** [nvar m lvl] is the negation of the single variable at [lvl]. *)

val addref : t -> node -> node
(** Increment the external reference count; returns the node for
    convenience. *)

val delref : t -> node -> unit
(** Decrement the external reference count.  The node is reclaimed at the
    next garbage collection once the count reaches zero. *)

val refcount : t -> node -> int

val gc : t -> unit
(** Force a mark/sweep collection from externally referenced nodes.
    Invalidates all operation-cache entries (by generation bump, not by a
    wipe — see {!clear_caches}). *)

val checkpoint : t -> unit
(** Safe-point hook called by top-level operations: runs a GC when the
    store is nearly full.  Never call this from inside a recursive
    operation. *)

val live_nodes : t -> int
(** Number of allocated (live or garbage, not yet swept) nodes, terminals
    included. *)

val peak_nodes : t -> int
(** High-water mark of {!live_nodes} over the manager's lifetime. *)

val gc_count : t -> int
(** Number of collections performed so far. *)

val gc_millis : t -> float
(** Total CPU milliseconds spent inside {!gc}. *)

val grow_count : t -> int
(** Number of node-table doublings performed so far. *)

val grow_millis : t -> float
(** Total CPU milliseconds spent growing and re-hashing the node table. *)

(** {2 Operation caches}

    One shared N-way set-associative cache used by all algorithm modules.
    Keys are small tuples of node handles plus an operation tag; a miss
    returns [-1].  Entries are generation-stamped: invalidation
    ({!clear_caches}, and every {!gc}) bumps the generation in O(1)
    instead of wiping the array, and table growth preserves node handles
    so it does not touch the cache at all. *)

val register_tag : string -> int
(** Allocate a fresh operation tag with a human-readable name.  Called at
    module-initialisation time by the algorithm modules; the registry is
    global, so tags mean the same thing in every manager.  At most 64
    tags may be registered. *)

val tag_name : int -> string
(** Name a registered tag ([Invalid_argument] for unregistered ids). *)

val cache_lookup : t -> int -> node -> node -> node -> node
(** [cache_lookup m tag a b c] probes the set for [(tag, a, b, c)];
    returns the cached result or [-1].  Hits are promoted toward the
    front of their set. *)

val cache_store : t -> int -> node -> node -> node -> node -> unit
(** [cache_store m tag a b c result] inserts at the front of the set,
    evicting the entry in the last way if the set is full. *)

val clear_caches : t -> unit
(** Invalidate every cache entry by bumping the generation stamp.
    Statistics counters are {e not} reset; they count monotonically over
    the manager's lifetime. *)

(** Per-tag cache statistics, as reported by {!cache_stats}. *)
type cache_stat = {
  tag : int;
  name : string;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
}

val cache_stats : t -> cache_stat list
(** One entry per registered tag, in tag order.  All counters are
    monotone over the manager's lifetime (GC and growth never reset
    them). *)

val cache_totals : t -> int * int * int
(** [(hits, misses, evictions)] summed over all tags. *)

val check_invariants : t -> string list
(** Structural audit: the free list is consistent, every allocated node
    respects the order invariant and sits exactly once in its
    unique-table bucket.  Returns human-readable violations; [[]] means
    consistent.  O(nodes × bucket length) — meant for tests. *)

(** {2 Frozen (read-only serving) mode}

    {!freeze} turns the manager into an immutable arena for the query
    server: a final mark/sweep compacts the live node set, then the
    mutating entry points are fenced off.  On a frozen manager
    {!addref} / {!delref} return without touching memory (the query
    path is ref-count-free), {!gc} and {!checkpoint} are no-ops (no
    collections, no cache-generation bumps between queries), and
    {!new_var} raises {!Frozen}.  Queries may still hash-cons scratch
    nodes; the serving worker reclaims them between queries with
    {!frozen_sweep}.  Freezing is one-way. *)

exception Frozen of string
(** Raised by mutating entry points ({!new_var}, relation-layer
    writes) on a frozen manager. *)

val freeze : t -> unit
(** Compact the live node set and flip the manager read-only.  Must be
    called at quiescence; idempotent.  One-way: there is no thaw. *)

val frozen : t -> bool

val frozen_sweep : t -> unit
(** Reclaim query scratch: collect every node unreachable from the
    pinned pre-freeze roots.  The caller must guarantee that no query is
    in flight.  [Invalid_argument] if the manager is not frozen. *)

val frozen_live_nodes : t -> int
(** Node count right after {!freeze} (the pinned arena size). *)

val frozen_sweep_count : t -> int
(** Number of {!frozen_sweep} passes performed. *)
