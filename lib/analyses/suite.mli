(** Wiring of the five interrelated whole-program analyses, following
    the paper's Figure 2:

    {v
    Hierarchy ──> Virtual Call Resolution <── Points-to
                         │                        │
                         v                        v
                     Call Graph ──────────> Side Effects
    v}

    Each analysis is its own Jedd class (its source lives in the
    corresponding module); they exchange relations through the host,
    as the paper's modules exchange them through Soot. *)

val analyses : (string * string) list
(** The five (display name, Jedd class source) pairs, in Figure 2
    order. *)

val combined_source : ?headroom:bool -> Jedd_minijava.Program.t -> string
(** All five classes in one compilation unit ("All 5 combined" in
    Table 1), with the shared preamble sized to the program.
    [~headroom:true] pads the domain sizes so a live universe can absorb
    program edits without outgrowing its bit widths (results are
    unaffected: the analyses never complement a relation). *)

val source_for : Jedd_minijava.Program.t -> string -> string
(** One analysis with its preamble, by display name. *)

val compile_one :
  Jedd_minijava.Program.t -> string -> Jedd_lang.Driver.compiled
(** Compile one analysis; fails loudly on any jeddc error. *)

type results = {
  subtypes : int list list;  (** (sub, super), strict transitive closure *)
  pt : int list list;  (** (variable, heap) *)
  resolved : int list list;  (** (call site, signature, type, method) *)
  call_edges : int list list;  (** (call site, method) *)
  reachable : int list list;  (** (method) *)
  side_effects : int list list;  (** (method, heap, field) *)
}

val receiver_types : Jedd_minijava.Program.t -> int list list -> int list list
(** Inter-analysis plumbing: (call site, receiver type, signature)
    triples derived from points-to results. *)

val run_all :
  ?node_capacity:int ->
  ?node_limit:int ->
  Jedd_minijava.Program.t ->
  results
(** Compile and run the full pipeline.  [node_limit] caps each
    universe's node table, turning runaway solves into a catchable
    [Jedd_bdd.Manager.Out_of_nodes]. *)

val run_combined :
  ?node_capacity:int ->
  ?node_limit:int ->
  ?headroom:bool ->
  ?naive:bool ->
  Jedd_minijava.Program.t ->
  Jedd_lang.Interp.t * results
(** The same pipeline compiled as ONE Jedd program in ONE universe
    ("All 5 combined"), returning the live instance alongside the
    results.  This is the form worth persisting: every result relation
    ([Hierarchy.subtypes], [PointsTo.pt], [VirtualCalls.resolved],
    [CallGraph.reachable], [SideEffects.modSet], ...) is a field of the
    shared instance.  The analyses run one after another in Figure 2
    order.

    The fixed points run semi-naively (through {!Jedd_incr.Fixpoint});
    [~naive:true] switches to the original full-relation do-while loops
    — the differential suite checks the two agree tuple-for-tuple. *)

val verify : Jedd_minijava.Program.t -> results -> (string * int) list
(** Compare a run's results tuple for tuple against the non-BDD
    reference analyses ({!Jedd_minijava.Reference}): [subtypes], [pt],
    [call_edges], [reachable] and [side_effects] ([resolved] has no
    reference counterpart).  Returns each relation that differs, named
    as its field, with the size of its symmetric difference; [[]] means
    all five agree. *)

val snapshot :
  ?meta:(string * string) list -> Jedd_lang.Interp.t -> Jedd_store.Snapshot.t
(** Package an instance (typically from {!run_combined}) as a store
    snapshot: its declaration registries plus every field relation
    under its qualified name. *)
