(** The universe: one BDD manager plus the registries of domains,
    attributes and physical domains a Jedd program runs against.

    Corresponds to the global state of the paper's Jedd runtime library:
    the BDD package instance behind JNI, the [jedd.Domain],
    [jedd.Attribute] and [jedd.PhysicalDomain] implementations, and the
    profiler hook.

    Every relation of a universe is a root in its one in-core
    [Jedd_bdd.Manager], which also holds the variable order (the one
    the physical-domain declarations fix) and the finite-domain
    blocks. *)

type t

(** Per-tag operation-cache activity during one relational operation. *)
type tag_delta = { tag : string; hits : int; misses : int }

(** What one relational operation cost at the BDD layer: operation-cache
    activity (total and per tag, only tags with activity listed), GC
    and node-table-resize work. *)
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

val create : ?node_capacity:int -> ?node_limit:int -> unit -> t
(** [create ()] makes a universe over a fresh manager.  [node_limit]
    caps the manager's node table — exceeding it raises
    [Jedd_bdd.Manager.Out_of_nodes]. *)

val manager : t -> Jedd_bdd.Manager.t
(** The manager holding every relation root of this universe. *)

val uid : t -> int
(** A unique id per universe: relations of two universes never mix, and
    per-universe side tables are keyed by it. *)

val live_roots : t -> int Atomic.t
(** The number of relation roots of this universe currently holding a
    reference, kept by [Relation] (lock-free, since relations are
    released from GC finalisers). *)

val set_profile_level : t -> profile_level -> unit
val profile_level : t -> profile_level

val set_on_op : t -> (op_event -> unit) option -> unit
val emit_op : t -> op_event -> unit
(** Used by the relation operations to publish profile events. *)

val next_scratch_name : t -> string
(** Fresh name generator for scratch physical domains the runtime
    allocates when it must separate colliding attributes on the fly. *)

val checkpoint : t -> unit
(** Give the manager a safe point to garbage-collect. *)

val freeze : t -> unit
(** Flip the universe into read-only serving mode by freezing the
    manager ([Jedd_bdd.Manager.freeze] — compaction, then no refcount
    traffic or GC; mutation raises [Jedd_bdd.Manager.Frozen]).
    One-way; idempotent. *)

val frozen : t -> bool

