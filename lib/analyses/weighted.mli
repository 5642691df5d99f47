(** Quantitative analyses on the terminal-valued ([`Mtbdd]) backend.

    The boolean Jedd classes of this directory run unmodified on an
    mtbdd universe (their fixpoints compute 0/1-weighted relations whose
    support is bit-identical to the in-core backend); these drivers then
    extract counting answers with the weighted relation surface.
    Everything here is differenced against recounting the boolean
    tuples — see {!recount_by_first} and the mtbdd test suite. *)

val recount_by_first : int list list -> (int * int) list
(** Group boolean tuples by their first component and count tuples per
    group, sorted — the hand-computed reference for the counting
    projections below. *)

(** {2 Allocation-count points-to}

    How many allocation sites may each variable point to: the counting
    projection [project_sum pt [heap]] of the §5 points-to analysis. *)

type alloc_counts = {
  ac_inst : Jedd_lang.Interp.t;  (** the mtbdd universe it ran in *)
  ac_pt : Jedd_relation.Relation.t;  (** points-to support, 0/1-weighted *)
  ac_counts : Jedd_relation.Relation.t;
      (** [<var>], weight = number of allocation sites *)
}

val run_alloc_counts :
  ?node_capacity:int -> Jedd_minijava.Program.t -> alloc_counts
(** Compile and run the points-to class on a fresh [`Mtbdd] universe,
    then sum out the heap attribute. *)

val alloc_counts_list : alloc_counts -> (int * int) list
(** [(var, count)] pairs, sorted by var. *)

(** {2 Call-frequency weighted call graph}

    Each resolved call edge carries a static execution frequency — the
    caller's saturating call-graph weight ({!Jedd_cost.Freq.graph_weights})
    times a per-site factor — and per-method hotness is the sum over the
    method's reachable incoming edges. *)

type call_freqs = {
  cf_inst : Jedd_lang.Interp.t;
  cf_edges : Jedd_relation.Relation.t;
      (** [<callsite, method>] restricted to reachable sites, weight =
          static call frequency *)
  cf_hot : Jedd_relation.Relation.t;
      (** [<method>], weight = summed reachable in-edge frequency *)
}

val edge_weights :
  ?site_factor:int ->
  Jedd_minijava.Program.t ->
  call_edges:int list list ->
  (int list * int) list
(** The per-edge frequencies alone: [(tuple, weight)] for every
    [callsite; method] edge, weights floored at 1 so the weighted
    relation's support is exactly the boolean [callEdge] set.
    [site_factor] (default 8) is the multiplier each call hop applies,
    mirroring [Freq]'s loop factor. *)

val run_call_freqs :
  ?node_capacity:int ->
  ?site_factor:int ->
  Jedd_minijava.Program.t ->
  call_edges:int list list ->
  call_freqs
(** Compile and run the call-graph class on a fresh [`Mtbdd] universe
    with the given resolved edges (from [Vcall.call_edges] or
    [Suite.results]), lift the frequency-weighted edges, mask them to
    reachable call sites (pointwise product with the 0/1
    [reachableSites]), and sum out the call site. *)

val edge_freqs_list : call_freqs -> ((int * int) * int) list
(** [((callsite, method), frequency)], sorted. *)

val method_hotness_list : call_freqs -> (int * int) list
(** [(method, hotness)], sorted by method. *)
