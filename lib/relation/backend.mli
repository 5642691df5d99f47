(** The relation-backend interface: everything the relational runtime
    ({!Universe}, {!Relation}) needs from a BDD engine, packed per
    universe as a record of operations over the engine's node type.

    Four engines are provided:

    - [`Incore] — the default, backed by the shared hash-consed node
      store of [Jedd_bdd.Manager] with its fused kernels and operation
      caches;
    - [`Extmem] — the out-of-core levelized streaming engine of
      [Jedd_extmem.Ebdd] (Adiar-style, arXiv:2104.12101): BDDs as
      level-ordered node files, operations as priority-queue sweeps
      whose memory is bounded by a byte budget, spilling sorted runs to
      a per-universe temp directory;
    - [`Hybrid] — both of the above, chosen per operation (see
      {!kind});
    - [`Mtbdd] — the terminal-valued engine of [Jedd_mtbdd.Mtbdd]:
      relations carry a non-negative integer weight per tuple, boolean
      connectives become pointwise terminal arithmetic under the 0/1
      embedding (conjunction = multiply, disjunction = max), and the
      {!weights} capability exposes the genuinely quantitative
      operations (sum-projection, scaling, thresholding).

    A universe holds one {!t}: an {!engine} whose node type is
    existential.  {!Relation} ties every root to the node type of its
    universe's engine, so a node of another engine is a type error, and
    a binary operation checks once, through the engine's {!Type.Id.t},
    that both operands share one universe.  What an engine can do
    beyond the boolean {!ops} is fixed when {!make} builds it: levelized
    dumps ({!levelizes}), weights, and freezing and reordering
    ({!in_place}).  The code that needs a capability asks for it and
    refuses its absence itself.

    In all cases the in-core manager remains the variable-order
    authority — domains and physical domains allocate their bit blocks
    through it, and the other engines address variables by level. *)

(** Operations every engine provides, closed over the engine's state
    (node store, caches, spill store).  Levels are current manager
    levels; blocks are the finite-domain bit blocks of
    [Jedd_bdd.Fdd]. *)
type 'n ops = {
  zero : unit -> 'n;
  one : unit -> 'n;
  addref : 'n -> unit;
      (** Pin a root across safe points.  No-op for engines whose values
          are ordinary GC'd data. *)
  delref : 'n -> unit;
  band : 'n -> 'n -> 'n;
  bor : 'n -> 'n -> 'n;
  bdiff : 'n -> 'n -> 'n;
  cube : (int * bool) list -> 'n;
      (** Conjunction of literals, [(level, polarity)] pairs in any
          order. *)
  biimp_vars : int -> int -> 'n;
      (** Bi-implication of the variables at two levels (the building
          block of attribute copy). *)
  ithval : Jedd_bdd.Fdd.block -> int -> 'n;
      (** The block holds exactly the given value. *)
  less_than : Jedd_bdd.Fdd.block -> int -> 'n;
      (** The block's value is strictly below the bound. *)
  restrict : 'n -> (int * bool) list -> 'n;
  exist : 'n -> int list -> 'n;
  replace : 'n -> (int * int) list -> 'n;
      (** Rebuild with levels permuted by the given (source, target)
          pairs. *)
  relprod_replace : 'n -> 'n -> (int * int) list -> int list -> 'n;
      (** [relprod_replace f g pairs qlevels] is
          [exist (band f (replace g pairs)) qlevels] — the join/compose
          kernel.  Engines may fuse it (in-core) or compose the pieces
          out-of-core (extmem). *)
  nodecount : 'n -> int;
  satcount : 'n -> over:int list -> int;
  shape : 'n -> int array;
  iter_assignments : 'n -> levels:int array -> (bool array -> unit) -> unit;
  equal : 'n -> 'n -> bool;
  is_zero : 'n -> bool;
  checkpoint : unit -> unit;
      (** A safe point: the engine may garbage-collect. *)
}

(** Dump a root to the portable {!Jedd_bdd.Levelized.t} shape and
    rebuild one from it (the extmem node files already {e are}
    levelized; the in-core store converts).  Levels in a dump are
    current manager levels.  [import] validates the dump first
    ({!Jedd_bdd.Levelized.Malformed} on failure); its in-core root
    carries one external reference owned by the caller. *)
type 'n levelized = {
  export : 'n -> Jedd_bdd.Levelized.t;
  import : Jedd_bdd.Levelized.t -> 'n;
}

(** Terminal-valued operations, which no boolean engine can express.
    Weights are non-negative and saturate at
    [Jedd_mtbdd.Mtbdd.value_cap]. *)
type 'n weights = {
  add : 'n -> 'n -> 'n;
  mul : 'n -> 'n -> 'n;
      (** Pointwise product — also the weight-preserving intersection
          with a 0/1 mask. *)
  scale : 'n -> int -> 'n;  (** Multiply every weight by a constant. *)
  sum_exist : 'n -> int list -> 'n;
      (** Quantify levels away summing weights per projected assignment
          — the counting projection (levels absent from a sub-diagram
          double it, like satcount). *)
  threshold : 'n -> int -> 'n;
      (** Clamp to the 0/1 embedding: weights [>= k] become 1, others
          0. *)
  iter_weighted :
    'n -> levels:int array -> (bool array -> int -> unit) -> unit;
      (** [iter_assignments] with each assignment's weight. *)
}

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
    through the levelized dump format.

    [`Mtbdd] computes on the terminal-valued store; boolean operations
    use the 0/1 embedding and are bit-identical to the in-core engine
    after projection. *)

type 'n engine = {
  kind : kind;
  id : 'n Type.Id.t;  (** Fresh per {!make}: one universe, one id. *)
  ops : 'n ops;
  levelized : 'n levelized option;  (** Every kind but [`Mtbdd]. *)
  weights : 'n weights option;  (** [`Mtbdd] only. *)
  store : Jedd_extmem.Store.t option;  (** See {!store}. *)
  mt_store : Jedd_mtbdd.Mtbdd.t option;  (** See {!mt_store}. *)
}

type t = Engine : 'n engine -> t [@@unboxed]

val make : kind -> Jedd_bdd.Manager.t -> t
(** Build an engine over the given manager.  [`Extmem] and [`Hybrid]
    create a fresh spill store (unique temp directory, cleaned up on
    finalisation and at exit) whose budgets come from
    [JEDD_EXTMEM_PQ_BYTES] / [JEDD_EXTMEM_MEM_NODES].  [`Hybrid]
    additionally clears the manager's gc-on-exhaustion flag
    ({!Jedd_bdd.Manager.set_gc_on_exhaustion}): the fallback resumes
    the surrounding computation, so a failed in-core attempt must not
    recycle the caller's unreferenced in-flight intermediates. *)

val kind : t -> kind

val store : t -> Jedd_extmem.Store.t option
(** The spill store of an [`Extmem] or [`Hybrid] backend ([None]
    otherwise); source of the spill/I/O counters in
    [Universe.bdd_delta]. *)

val mt_store : t -> Jedd_mtbdd.Mtbdd.t option
(** The terminal-valued store of an [`Mtbdd] backend ([None]
    otherwise); source of the per-tag apply-cache and
    distinct-terminal counters in [Universe.bdd_delta]. *)

val cleanup : t -> unit
(** Release backend resources eagerly (removes the spill directory). *)

(** {2 Capabilities by kind}

    For callers that must refuse before they build a universe (the
    CLIs); a built engine carries the same answers. *)

val levelizes : kind -> bool
(** [make k] fills [levelized]: snapshots can be written from and
    loaded into every kind but [`Mtbdd], whose terminal weights the
    boolean node-file format cannot hold. *)

val in_place : kind -> bool
(** The engine computes on the manager's own node table, which
    [Universe.freeze] compacts into a read-only arena and
    [Universe.reorder] sifts in place: [`Incore] only.  Extmem and
    hybrid roots may be levelized node files and mtbdd roots live in
    their own store, both with the levels baked in. *)

(** {2 Backend names}

    The single authority for backend-name parsing, shared by
    [JEDD_BACKEND] and every [--backend] flag (both resolved by
    [Universe.resolve_backend]) and by the version banners. *)

val known_backends : string list
(** In registration order:
    [["incore"; "extmem"; "hybrid"; "mtbdd"]]. *)

val kind_name : kind -> string

val kind_of_string : string -> kind
(** Raises [Invalid_argument] naming the known backends on anything
    else — unknown names are never silently defaulted. *)
