(** The relation-backend interface: everything the relational runtime
    ({!Universe}, {!Relation}) needs from a BDD engine, packed per
    universe as a record of operations over the engine's node type.

    Two engines are provided:

    - [`Incore] — the engine of every Boolean relation, backed by the
      shared hash-consed node store of [Jedd_bdd.Manager] with its fused
      kernels and operation caches;
    - [`Mtbdd] — the terminal-valued engine of [Jedd_mtbdd.Mtbdd]:
      relations carry a non-negative integer weight per tuple, boolean
      connectives become pointwise terminal arithmetic under the 0/1
      embedding (conjunction = multiply, disjunction = max), and the
      {!weights} capability exposes the genuinely quantitative
      operations (sum-projection, scaling, thresholding).  Only code
      that asks for weights builds it ([Jedd_analyses.Weighted]).

    A universe holds one {!t}: an {!engine} whose node type is
    existential.  {!Relation} ties every root to the node type of its
    universe's engine, so a node of another engine is a type error, and
    a binary operation checks once, through the engine's {!Type.Id.t},
    that both operands share one universe.  What an engine can do
    beyond the boolean {!ops} is fixed when {!make} builds it: levelized
    dumps and freezing ({!in_place}), and weights.  The code
    that needs a capability asks for it and refuses its absence itself.

    In both cases the in-core manager remains the variable-order
    authority — domains and physical domains allocate their bit blocks
    through it, and the mtbdd store addresses variables by level. *)

(** Operations every engine provides, closed over the engine's state
    (node store, caches).  Levels are manager levels; blocks are the
    finite-domain bit blocks of [Jedd_bdd.Fdd]. *)
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
          kernel. *)
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
    rebuild one from it.  Levels in a dump are
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

type kind = [ `Incore | `Mtbdd ]
(** [`Mtbdd] computes on the terminal-valued store; boolean operations
    use the 0/1 embedding and are bit-identical to the in-core engine
    after projection. *)

type 'n engine = {
  kind : kind;
  id : 'n Type.Id.t;  (** Fresh per {!make}: one universe, one id. *)
  ops : 'n ops;
  levelized : 'n levelized option;  (** [`Incore] only. *)
  weights : 'n weights option;  (** [`Mtbdd] only. *)
  mt_store : Jedd_mtbdd.Mtbdd.t option;  (** See {!mt_store}. *)
}

type t = Engine : 'n engine -> t [@@unboxed]

val make : kind -> Jedd_bdd.Manager.t -> t
(** Build an engine over the given manager; [`Mtbdd] also creates its
    terminal-valued store. *)

val kind : t -> kind

val mt_store : t -> Jedd_mtbdd.Mtbdd.t option
(** The terminal-valued store of an [`Mtbdd] backend ([None]
    otherwise); source of the per-tag apply-cache and
    distinct-terminal counters in [Universe.bdd_delta]. *)

val in_place : kind -> bool
(** The engine computes on the manager's own node table: [`Incore]
    only.  That table is what [Universe.freeze] compacts into a
    read-only arena and what a levelized dump (the snapshot format) is
    written from; mtbdd roots
    live in their own store with the levels baked in and carry weights
    the boolean dump cannot hold. *)

val kind_name : kind -> string
(** ["incore"] or ["mtbdd"]: snapshot metadata, error messages and the
    version banners. *)

val known_backends : string list
(** [["incore"; "mtbdd"]]. *)
