(** The universe: one BDD backend plus the registries of domains,
    attributes and physical domains a Jedd program runs against.

    Corresponds to the global state of the paper's Jedd runtime library:
    the BDD package instance behind JNI, the [jedd.Domain],
    [jedd.Attribute] and [jedd.PhysicalDomain] implementations, and the
    profiler hook.

    Every universe carries an in-core [Jedd_bdd.Manager] — the variable
    order and finite-domain blocks always live there, and the order is
    the one the physical-domain declarations fix — and one engine
    that stores and combines relation BDDs ({!Backend}): the default
    [`Incore] engine computes on the manager itself, while [`Mtbdd]
    keeps weighted relations in a terminal-valued store. *)

type t

(** Per-tag operation-cache activity during one relational operation. *)
type tag_delta = { tag : string; hits : int; misses : int }

(** What one relational operation cost at the BDD layer: operation-cache
    activity (total and per tag, only tags with activity listed), GC
    and node-table-resize work, and — on the mtbdd backend — the
    terminal store's cache activity. *)
type bdd_delta = {
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
  per_tag : tag_delta list;
  gcs : int;
  gc_millis : float;
  grows : int;
  grow_millis : float;
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
(** Opaque snapshot of the monotone cache/GC counters. *)

val bdd_snapshot : t -> bdd_snapshot
val bdd_delta_since : t -> bdd_snapshot -> bdd_delta

type profile_level = Off | Counts | Shapes

val create :
  ?node_capacity:int -> ?node_limit:int -> ?backend:Backend.kind -> unit -> t
(** [create ()] makes a universe over a fresh manager.  [backend]
    selects the relation engine (default [`Incore]).  [node_limit] caps
    the manager's node table — exceeding it raises
    [Jedd_bdd.Manager.Out_of_nodes]. *)

val manager : t -> Jedd_bdd.Manager.t
(** The in-core manager: variable-order authority for both engines. *)

val backend : t -> Backend.t
val backend_kind : t -> Backend.kind

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
(** Flip the universe into read-only serving mode by freezing the
    backend ([Jedd_bdd.Manager.freeze] — compaction, then no refcount
    traffic or GC; mutation raises [Jedd_bdd.Manager.Frozen]).
    One-way; idempotent.  [Invalid_argument] on [`Mtbdd]
    ({!Backend.in_place}). *)

val frozen : t -> bool

