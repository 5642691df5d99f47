(** The universe: one BDD backend plus the registries of domains,
    attributes and physical domains a Jedd program runs against.

    Corresponds to the global state of the paper's Jedd runtime library:
    the BDD package instance behind JNI, the [jedd.Domain],
    [jedd.Attribute] and [jedd.PhysicalDomain] implementations, and the
    profiler hook.

    Every universe carries an in-core [Jedd_bdd.Manager] — the variable
    order and finite-domain blocks always live there — but the engine
    that stores and combines relation BDDs is pluggable ({!Backend}):
    the default [`Incore] backend computes on the manager itself, while
    [`Extmem] streams levelized node files through bounded-memory sweeps
    and can run analyses whose BDDs exceed main memory. *)

type t

(** Per-tag operation-cache activity during one relational operation. *)
type tag_delta = { tag : string; hits : int; misses : int }

(** What one relational operation cost at the BDD layer: operation-cache
    activity (total and per tag, only tags with activity listed), GC /
    node-table-resize work, and — on the external-memory backend — the
    spill traffic of the operation's sweeps. *)
type bdd_delta = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  per_tag : tag_delta list;
  gcs : int;
  gc_millis : float;
  grows : int;
  grow_millis : float;
  reorders : int;  (** reorder passes completed during the operation *)
  reorder_swaps : int;  (** adjacent level swaps performed *)
  reorder_millis : float;
  spill_runs : int;  (** sorted priority-queue runs written to disk *)
  spilled_bytes : int;  (** bytes of runs, arc files and node files *)
  pq_peak_bytes : int;
      (** high-water mark of in-memory priority-queue bytes so far
          (a watermark, not a per-operation difference) *)
  io_millis : float;  (** wall milliseconds inside spill-file I/O *)
  mt_cache_hits : int;
      (** terminal-valued apply-cache activity, on the mtbdd backend *)
  mt_cache_misses : int;
  mt_per_tag : tag_delta list;
      (** per-kernel mtbdd cache activity (mt-apply-add, mt-exist-sum, ...) *)
  mt_terminals : int;
      (** distinct terminal values live in the store after the operation
          (a gauge, not a per-operation difference) *)
}

(** What an operation reports to the profiler hook. *)
type op_event = {
  op : string;  (** operation name: "join", "compose", "replace", ... *)
  label : string;  (** source position or user label *)
  millis : float;
  operand_nodes : int list;  (** BDD node count of each operand *)
  result_nodes : int;
  result_tuples : int;  (** [size()] of the result relation *)
  shapes : (int array * int array list) option;
      (** result shape and operand shapes, when shape profiling is on *)
  bdd : bdd_delta option;
      (** BDD-layer costs of this operation, when profiling is on *)
}

type bdd_snapshot
(** Opaque snapshot of the monotone cache/GC/spill counters. *)

val bdd_snapshot : t -> bdd_snapshot
val bdd_delta_since : t -> bdd_snapshot -> bdd_delta

type profile_level = Off | Counts | Shapes

val resolve_backend : string option -> Backend.kind
(** The backend a [--backend] flag names, or without one the backend
    the [JEDD_BACKEND] environment variable names ([`Incore] when it is
    unset or empty).  The one resolution of that choice: {!create} and
    every command-line tool use it.  [Invalid_argument] on an unknown
    name ({!Backend.kind_of_string}). *)

val create :
  ?node_capacity:int -> ?node_limit:int -> ?backend:Backend.kind -> unit -> t
(** [create ()] makes a universe over a fresh manager.  [backend]
    selects the relation engine; when omitted it is
    [resolve_backend None].  [node_limit] caps the manager's node table —
    exceeding it raises [Jedd_bdd.Manager.Out_of_nodes]
    ({!set_node_limit} adjusts it later). *)

val manager : t -> Jedd_bdd.Manager.t
(** The in-core manager: variable-order authority for both backends. *)

val backend : t -> Backend.t
val backend_kind : t -> Backend.kind

val set_node_limit : t -> int option -> unit
(** Install or remove the in-core node budget at runtime. *)

val reorder_engine : t -> Jedd_reorder.Reorder.t
(** The universe's variable-order optimizer.  Physical domains register
    their blocks with it on declaration ({!Physdom.declare}). *)

val register_block : t -> name:string -> vars:int array -> unit
(** Register a block of variables with the reorder engine so it is moved
    as a unit.  Called by {!Physdom}; exposed for direct Fdd users. *)

val reorder : ?trigger:string -> t -> unit
(** Run one sifting pass over the registered blocks now (e.g. between
    fixpoint phases).  [trigger] defaults to ["explicit"] and is
    recorded in the pass event.  A no-op on every backend but [`Incore]
    ({!Backend.in_place}): the others bake levels into their node files
    or stores, so the order is fixed. *)

val set_auto_reorder : t -> int option -> unit
(** [set_auto_reorder u (Some n)] arms the safe-point trigger: a sifting
    pass fires at the next {!checkpoint} once [n] allocated nodes are
    reached, re-arming itself above the surviving population.  [None]
    disarms it.  A no-op on every backend but [`Incore]. *)

val uid : t -> int
(** A unique id per universe, used to key per-universe side tables. *)

val set_profile_level : t -> profile_level -> unit
val profile_level : t -> profile_level

val set_on_op : t -> (op_event -> unit) option -> unit
val emit_op : t -> op_event -> unit
(** Used by the relation operations to publish profile events. *)

val next_scratch_name : t -> string
(** Fresh name generator for scratch physical domains the runtime
    allocates when it must separate colliding attributes on the fly. *)

val checkpoint : t -> unit
(** Give the backend a safe point to garbage-collect. *)

val freeze : t -> unit
(** Flip the universe into read-only serving mode: disarms the
    auto-reorder trigger and freezes the backend
    ([Jedd_bdd.Manager.freeze] — compaction, then no refcount traffic,
    GC or reordering; mutation raises [Jedd_bdd.Manager.Frozen]).
    One-way; idempotent.  [Invalid_argument] on every backend but
    [`Incore] ({!Backend.in_place}). *)

val frozen : t -> bool

val cleanup : t -> unit
(** Release backend resources eagerly — removes an [`Extmem] universe's
    spill directory (also done by finalisers and at exit). *)
