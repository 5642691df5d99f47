(** The relation-backend interface: everything the relational runtime
    ({!Universe}, {!Relation}) needs from a BDD engine, carved out as a
    first-class signature so the engine is pluggable per-universe.

    Three base implementations are provided:

    - {!Incore} — the default, backed by the shared hash-consed node
      store of [Jedd_bdd.Manager] with its fused kernels and operation
      caches;
    - {!Extmem} — the out-of-core levelized streaming engine of
      [Jedd_extmem.Ebdd] (Adiar-style, arXiv:2104.12101): BDDs as
      level-ordered node files, operations as priority-queue sweeps
      whose memory is bounded by a byte budget, spilling sorted runs to
      a per-universe temp directory;
    - {!Mtbdd_b} — the terminal-valued engine of [Jedd_mtbdd.Mtbdd]:
      relations carry a non-negative integer weight per tuple, boolean
      connectives become pointwise terminal arithmetic under the 0/1
      embedding (conjunction = multiply, disjunction = max), and the
      weighted entry points below expose the genuinely quantitative
      operations (sum-projection, scaling, thresholding).

    The relation layer is dispatch-routed over them through {!t} and
    {!node}: a universe carries one {!t} and every relation root is a
    {!node} of the matching implementation.

    In all cases the in-core manager remains the variable-order
    authority — domains and physical domains allocate their bit blocks
    through it, and the other engines address variables by level.
    Consequently extmem and mtbdd universes keep a fixed order (dynamic
    reordering is disabled: levels are baked into node files / the
    terminal-valued store). *)

(** Operations a backend must provide.  [state] is the engine instance
    (node store, caches, spill store); [node] the engine's BDD values.
    Levels are current manager levels; blocks are the finite-domain bit
    blocks of [Jedd_bdd.Fdd]. *)
module type BACKEND = sig
  type state
  type node

  val zero : state -> node
  val one : state -> node

  val addref : state -> node -> unit
  (** Pin a root across safe points.  No-op for engines whose values
      are ordinary GC'd data. *)

  val delref : state -> node -> unit

  val band : state -> node -> node -> node
  val bor : state -> node -> node -> node
  val bdiff : state -> node -> node -> node

  val cube : state -> (int * bool) list -> node
  (** Conjunction of literals, [(level, polarity)] pairs in any
      order. *)

  val biimp_vars : state -> int -> int -> node
  (** Bi-implication of the variables at two levels (the building block
      of attribute copy). *)

  val ithval : state -> Jedd_bdd.Fdd.block -> int -> node
  (** The block holds exactly the given value. *)

  val less_than : state -> Jedd_bdd.Fdd.block -> int -> node
  (** The block's value is strictly below the bound. *)

  val restrict : state -> node -> (int * bool) list -> node
  val exist : state -> node -> int list -> node

  val replace : state -> node -> (int * int) list -> node
  (** Rebuild with levels permuted by the given (source, target)
      pairs. *)

  val relprod_replace :
    state -> node -> node -> (int * int) list -> int list -> node
  (** [relprod_replace s f g pairs qlevels] is
      [exist (band f (replace g pairs)) qlevels] — the join/compose
      kernel.  Engines may fuse it (in-core) or compose the pieces
      out-of-core (extmem). *)

  val nodecount : state -> node -> int
  val satcount : state -> node -> over:int list -> int
  val shape : state -> node -> int array

  val iter_assignments :
    state -> node -> levels:int array -> (bool array -> unit) -> unit

  val equal : state -> node -> node -> bool
  val is_zero : state -> node -> bool

  val checkpoint : state -> unit
  (** A safe point: the engine may garbage-collect. *)

  val supports_reorder : bool

  val freeze : state -> unit
  (** Flip the engine into read-only serving mode (see
      [Jedd_bdd.Manager.freeze]).  Engines with no immutable-arena
      story ([Extmem]) raise [Invalid_argument]. *)

  val frozen : state -> bool
end

type extmem_state = {
  xmgr : Jedd_bdd.Manager.t;  (** variable-order authority *)
  xstore : Jedd_extmem.Store.t;  (** spill files and I/O counters *)
}

module Incore :
  BACKEND
    with type state = Jedd_bdd.Manager.t
     and type node = Jedd_bdd.Manager.node

module Extmem :
  BACKEND with type state = extmem_state and type node = Jedd_extmem.Ebdd.t

type mtbdd_state = {
  mmgr : Jedd_bdd.Manager.t;  (** variable-order authority *)
  mstore : Jedd_mtbdd.Mtbdd.t;  (** terminal-valued node store *)
}

module Mtbdd_b :
  BACKEND with type state = mtbdd_state and type node = Jedd_mtbdd.Mtbdd.node

(** {2 Dispatch layer} *)

type kind = [ `Incore | `Extmem | `Hybrid | `Mtbdd ]
(** [`Hybrid] holds both engines and picks one per operation,
    optimistic first: attempt in-core whenever the guaranteed
    allocation — importing external operands — fits in half the node
    table's remaining headroom.  An attempt that exhausts the table
    ([Jedd_bdd.Manager.Out_of_nodes]) transparently re-runs on the
    external engine, so hybrid universes never abort where pure extmem
    completes; it also arms a short backoff during which only sure fits
    (predicted result size ({!Predict}) plus import cost within half
    the headroom) run in-core and everything else streams, so repeated
    mispredictions degrade to the conservative prediction-gated regime
    instead of thrashing the table.  Roots migrate across engines
    through the levelized dump format.  Like [`Extmem], a hybrid
    backend is single-domain, keeps a fixed variable order, and cannot
    be frozen.

    [`Mtbdd] computes on the terminal-valued store; boolean operations
    use the 0/1 embedding and are bit-identical to the in-core engine
    after projection. *)

type t
(** A backend instance: which engine, plus its state. *)

type node =
  | In of Jedd_bdd.Manager.node
  | Ex of Jedd_extmem.Ebdd.t
  | Mt of Jedd_mtbdd.Mtbdd.node

val make : kind -> Jedd_bdd.Manager.t -> t
(** Build a backend over the given manager.  [`Extmem] and [`Hybrid]
    create a fresh spill store (unique temp directory, cleaned up on
    finalisation and at exit) whose budgets come from
    [JEDD_EXTMEM_PQ_BYTES] / [JEDD_EXTMEM_MEM_NODES].  [`Hybrid]
    additionally clears the manager's gc-on-exhaustion flag
    ({!Jedd_bdd.Manager.set_gc_on_exhaustion}): the fallback resumes
    the surrounding computation, so a failed in-core attempt must not
    recycle the caller's unreferenced in-flight intermediates. *)

val kind : t -> kind
val manager : t -> Jedd_bdd.Manager.t

val store : t -> Jedd_extmem.Store.t option
(** The spill store of an [`Extmem] backend ([None] for [`Incore]);
    source of the spill/I/O counters in [Universe.bdd_delta]. *)

val mt_store : t -> Jedd_mtbdd.Mtbdd.t option
(** The terminal-valued store of an [`Mtbdd] backend ([None]
    otherwise); source of the per-tag apply-cache and
    distinct-terminal counters in [Universe.bdd_delta]. *)

val cleanup : t -> unit
(** Release backend resources eagerly (removes the spill directory). *)

val zero : t -> node
val one : t -> node
val addref : t -> node -> unit
val delref : t -> node -> unit
val band : t -> node -> node -> node
val bor : t -> node -> node -> node
val bdiff : t -> node -> node -> node
val cube : t -> (int * bool) list -> node
val biimp_vars : t -> int -> int -> node
val ithval : t -> Jedd_bdd.Fdd.block -> int -> node
val less_than : t -> Jedd_bdd.Fdd.block -> int -> node
val restrict : t -> node -> (int * bool) list -> node
val exist : t -> node -> int list -> node
val replace : t -> node -> (int * int) list -> node
val relprod_replace : t -> node -> node -> (int * int) list -> int list -> node
val nodecount : t -> node -> int
val satcount : t -> node -> over:int list -> int
val shape : t -> node -> int array

val iter_assignments :
  t -> node -> levels:int array -> (bool array -> unit) -> unit

val equal : t -> node -> node -> bool
val is_zero : t -> node -> bool
val checkpoint : t -> unit
val supports_reorder : t -> bool

val freeze : t -> unit
(** Freeze the backing engine read-only (one-way; see
    [Jedd_bdd.Manager.freeze]).  [Invalid_argument] on [`Extmem]. *)

val frozen : t -> bool

(** {2 Backend names}

    The single authority for backend-name parsing, shared by
    [JEDD_BACKEND], every [--backend] flag, and the version banners. *)

val known_backends : string list
(** In registration order:
    [["incore"; "extmem"; "hybrid"; "mtbdd"]]. *)

val kind_name : kind -> string

val kind_of_string : string -> kind
(** Raises [Invalid_argument] naming the known backends on anything
    else — unknown names are never silently defaulted. *)

(** {2 Levelized serialization}

    Both engines dump a root to the portable {!Jedd_bdd.Levelized.t}
    shape and rebuild one from it (the extmem node files already {e are}
    levelized; the in-core store converts).  Levels in a dump are
    current manager levels. *)

val export_levelized : t -> node -> Jedd_bdd.Levelized.t

val import_levelized : t -> Jedd_bdd.Levelized.t -> node
(** Validates the dump first ({!Jedd_bdd.Levelized.Malformed} on
    failure).  On the in-core backend the returned root carries one
    external reference owned by the caller — wrap it in a relation (which
    takes its own) and then {!delref} it.

    Both directions raise [Invalid_argument] on an [`Mtbdd] backend:
    terminal weights are not representable in the boolean node-file
    format. *)

(** {2 Weighted (terminal-valued) entry points}

    Only meaningful on an [`Mtbdd] backend — every function here raises
    [Invalid_argument] on any other kind, since no boolean engine can
    express them.  Weights are non-negative and saturate at
    {!wvalue_cap}. *)

val wvalue_cap : int

val wterminal : t -> int -> node
(** The constant diagram with the given weight everywhere. *)

val wadd : t -> node -> node -> node
val wmin : t -> node -> node -> node
val wmax : t -> node -> node -> node

val wmul : t -> node -> node -> node
(** Pointwise product — also the weight-preserving intersection with a
    0/1 mask. *)

val wscale : t -> node -> int -> node
(** Multiply every weight by a constant. *)

val wsum_exist : t -> node -> int list -> node
(** Quantify levels away summing weights per projected assignment — the
    counting projection (levels absent from a sub-diagram double it,
    like satcount). *)

val wthreshold : t -> node -> int -> node
(** Clamp to the 0/1 embedding: weights [>= k] become 1, others 0. *)

val iter_weighted :
  t -> node -> levels:int array -> (bool array -> int -> unit) -> unit
(** {!iter_assignments} with each assignment's weight. *)
