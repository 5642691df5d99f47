(** Hash-consed multi-terminal BDD (MTBDD) store with integer terminals.

    The quantitative twin of [Jedd_bdd.Manager]: nodes are dense integer
    handles into flat arrays, interned through a unique table so equal
    functions share one handle, reclaimed by refcount-rooted mark/sweep
    at safe points.  Where a BDD ends in the two terminals 0/1, an MTBDD
    ends in an arbitrary non-negative integer terminal — so one diagram
    represents a map from assignments to counts or weights, and the
    boolean engine's connectives generalise to pointwise terminal
    arithmetic ({!apply}) and quantification to terminal aggregation
    ({!exist}: sum for counting, max for boolean-style projection).

    The store is sequential-only; node levels are the levels of the
    owning universe's in-core manager.  Terminal values must be
    non-negative; arithmetic saturates at {!value_cap} instead of
    overflowing. *)

type t
(** An MTBDD store.  Handles from different stores must not be mixed. *)

type node = int
(** A node handle.  Terminals carry an integer value; {!zero} (the
    terminal 0) is the additive and multiplicative absorbing element and
    plays the role of the empty relation. *)

val value_cap : int
(** Saturation bound for all terminal arithmetic. *)

val create : unit -> t
(** [create ()] makes a store holding only the terminal 0, with room for
    2{^14} nodes (the table doubles as needed) and an operation cache of
    2{^12} sets of 4 ways. *)

val terminal : t -> int -> node
(** Intern the terminal with the given value ([Invalid_argument] on
    negative values; values above {!value_cap} are clamped to it). *)

val zero : t -> node
(** The terminal 0 (permanently pinned). *)

val one : t -> node
(** The terminal 1 — boolean [true] under the 0/1 embedding. *)

val is_terminal : t -> node -> bool
val terminal_value : t -> node -> int
(** Value of a terminal ([Invalid_argument] on internal nodes). *)

val level : t -> node -> int
(** Level of a node ([Jedd_bdd.Manager.terminal_level] for terminals). *)

val low : t -> node -> node
val high : t -> node -> node

val mk : t -> int -> node -> node -> node
(** [mk s lvl lo hi]: the unique node [(lvl, lo, hi)] with the [lo == hi]
    redundancy rule.  [lvl] must be strictly above both children. *)

val addref : t -> node -> unit
val delref : t -> node -> unit
val checkpoint : t -> unit
(** Safe point: collect when the table is nearly full.  Never call from
    inside a recursive operation. *)

val gc : t -> unit
(** Force a mark/sweep collection from referenced roots. *)

val live_nodes : t -> int
val peak_nodes : t -> int
val gc_count : t -> int

val distinct_terminals : t -> int
(** Number of distinct terminal values currently allocated (including
    the pinned 0) — the "how quantitative is this universe" gauge the
    profiler reports. *)

(** {2 Terminal-valued operations} *)

(** Pointwise binary terminal operation for {!apply}: saturating [Add] /
    [Mul], [Min] / [Max], and [Diff] — [Diff a b] is [a] where [b = 0]
    and [0] elsewhere, the terminal form of set difference. *)
type binop = Add | Min | Max | Mul | Diff

val apply : t -> binop -> node -> node -> node
(** Memoized generic apply: combine two MTBDDs pointwise with the given
    terminal operation.  Under the 0/1 embedding, [Mul] is conjunction,
    [Max] disjunction and [Diff] difference. *)

(** Aggregation rule for {!exist}: [Sum] adds the two cofactors of each
    quantified level (and doubles across quantified levels absent from a
    sub-diagram — counting semantics, cf. satcount), [Max] keeps the
    larger (boolean-projection semantics; absent levels are no-ops). *)
type agg = Sum | Max_agg

val exist : t -> agg -> node -> int list -> node
(** Quantify the given levels out by terminal aggregation. *)

val restrict : t -> node -> (int * bool) list -> node
(** Cofactor by a partial assignment of levels. *)

val replace : t -> node -> (int * int) list -> node
(** Rebuild with levels permuted by the (source, target) pairs.  When
    the permutation preserves the diagram's level order the rebuild is a
    single relabeling pass; otherwise it falls back to multiplying with
    the bi-implication diagram of the moved levels and projecting the
    sources out ([Max_agg] — exact because exactly one source assignment
    matches each target). *)

val relprod_replace :
  t ->
  ?combine:binop ->
  ?agg:agg ->
  node ->
  node ->
  (int * int) list ->
  int list ->
  node
(** [relprod_replace s f g pairs qlevels] is
    [exist agg (apply combine f (replace g pairs)) qlevels] — the
    join/compose kernel, fused into one recursion (mirroring
    [Jedd_bdd.Replace.relprod_replace]) when the permutation is
    order-preserving on [g].  [combine] defaults to [Mul] and [agg] to
    [Max_agg]: boolean semantics under the 0/1 embedding. *)

val fused_stats : unit -> int * int
(** [(fused, fallback)] counts of the {!relprod_replace} kernel, over
    all stores (cf. [Jedd_bdd.Replace.fused_stats]). *)

(** {2 Boolean abstraction and lifting} *)

val of_bool :
  t -> Jedd_bdd.Manager.t -> ?weight:int -> Jedd_bdd.Manager.node -> node
(** Lift a boolean BDD: [zero] maps to terminal 0, [one] to terminal
    [weight] (default 1), structure preserved.  Levels are the
    manager's current levels. *)

val to_bool : t -> Jedd_bdd.Manager.t -> node -> Jedd_bdd.Manager.node
(** Abstract down to an ordinary BDD: nonzero terminals become [one].
    The returned root is unreferenced; the caller addrefs. *)

val threshold_bool :
  t -> Jedd_bdd.Manager.t -> node -> int -> Jedd_bdd.Manager.node
(** Like {!to_bool} but keeping terminals [>= k] only.
    [threshold_bool s m n 1 = to_bool s m n]. *)

val threshold : t -> node -> int -> node
(** Clamp within the store: terminals [>= k] become 1, others 0 —
    [of_bool] of [threshold_bool], without leaving the store. *)

(** {2 Counting, enumeration, diagnostics} *)

val nodecount : t -> node -> int
val satcount : t -> node -> over:int list -> int
(** Number of assignments of the [over] levels reaching a nonzero
    terminal (the tuple count of the relation's support). *)

val shape : t -> node -> num_vars:int -> int array

val iter_assignments :
  t -> node -> levels:int array -> (bool array -> unit) -> unit
(** Enumerate assignments reaching nonzero terminals; [levels] sorted
    ascending, the value array is reused between calls. *)

val iter_weighted :
  t -> node -> levels:int array -> (bool array -> int -> unit) -> unit
(** Like {!iter_assignments} but also passing each assignment's terminal
    value. *)

(** {2 Cache statistics} *)

type cache_stat = {
  name : string;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
}

val cache_stats : t -> cache_stat list
(** One entry per operation tag (apply per-op, exist per-aggregation,
    the fused kernel, ...), monotone over the store's lifetime. *)

val cache_totals : t -> int * int * int
(** [(hits, misses, evictions)] summed over all tags. *)
