(** Variable replacement: rebuild a BDD with its variables permuted —
    and the fused kernels that combine a permutation with conjunction
    and/or existential quantification in a single recursion.

    Plain {!replace} is BuDDy's [bdd_replace] / CUDD's [SwapVariables] —
    the operation the Jedd runtime uses to move an attribute from one
    physical domain to another (§3.2.2 of the paper).

    The fused kernels exist because the runtime's hottest pattern is
    "re-layout one operand, then conjoin (and possibly quantify)": a
    join is [f /\ perm(g)] and a composition is
    [exist cube (f /\ perm(g))].  Materialising [perm(g)] costs a full
    BDD construction and the memory traffic of an intermediate the very
    next operation consumes and discards — the §4 profile shows replace
    among the top costs.  {!relprod_replace} performs the whole pattern
    in one recursion (the analogue of BuDDy's [appex] extended with a
    permutation), and {!replace_exist} fuses projection with re-layout. *)

type man = Manager.t
type node = Manager.node

type perm
(** A (partial) permutation of variable levels.  Levels not mentioned map
    to themselves.  Permutations are interned: building the same mapping
    twice returns the same value, which keeps fused-kernel cache keys
    stable across top-level calls. *)

val make_perm : man -> (int * int) list -> perm
(** [make_perm m pairs] builds the mapping sending each [(src, dst)].
    Sources must be distinct and no two sources may share a target;
    [Invalid_argument] otherwise.  A swap is expressed by listing both
    directions.  For a plain move (target not itself remapped), the
    caller must guarantee that the target variables do not occur in the
    BDD being replaced — exactly the discipline the Jedd runtime's
    physical-domain bookkeeping enforces. *)

val identity : man -> perm
val is_identity : perm -> bool

val apply_level : perm -> int -> int

val replace : man -> node -> perm -> node
(** [replace m f p] is the BDD containing, for every string of [f], the
    string with bits permuted by [p].  Correct for arbitrary injective
    maps (it reinserts variables at their new position with [ite]). *)

(** {2 Fused kernels} *)

val relprod_replace : man -> node -> node -> perm -> node -> node
(** [relprod_replace m f g p cube] computes
    [Quant.exist m (Ops.band m f (replace m g p)) cube] without ever
    materialising [replace m g p].  With a terminal [cube] it degenerates
    to the fused conjunction [Ops.band m f (replace m g p)] — the join
    kernel.  [cube] is expressed in the shared (post-permutation)
    variable space.

    The single-recursion path requires [p] to be order-preserving along
    every edge of [g]'s DAG (checked in one memoised traversal); a
    non-order-preserving permutation falls back to the unfused pipeline,
    so the function is total and always equivalent to the pipeline. *)

val replace_exist : man -> node -> perm -> node -> node
(** [replace_exist m f p cube] computes
    [replace m (Quant.exist m f cube) p] in one recursion.  [cube] is
    expressed in [f]'s original (pre-permutation) variable space.  Same
    order-preservation requirement and fallback as {!relprod_replace}. *)

val fused_stats : unit -> int * int
(** [(fused, fallbacks)]: how many top-level fused-kernel calls ran the
    single-recursion path vs. fell back to the materialising pipeline.
    Global, monotone; for tests and benchmark reporting. *)
