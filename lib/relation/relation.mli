(** Relations: the Jedd data type (§2.1) and all its operations (§2.2),
    backed by BDDs.

    A relation is an immutable set of tuples over a {!Schema.t}.  Values
    are reference-counted into the BDD manager and released by an OCaml
    finaliser — the same "finaliser as safety net" design as the paper's
    relation containers (§4.2); use {!release} for eager frees, which is
    what the Jedd interpreter's liveness analysis calls.

    Operation names follow the paper:
    union/inter/diff are [|], [&], [-]; {!project_away} is [(a=>)];
    {!rename} is [(a=>b)]; {!copy} is [(a=>b c)]; {!join} is
    [x{..} >< y{..}]; {!compose} is [x{..} <> y{..}].

    When two operands disagree only on physical-domain layout, the
    operation inserts the necessary [replace] automatically (and reports
    it to the profiler) — in language mode the jeddc translator has
    already made every replace explicit, so the interpreter never
    triggers this path except where the translator planned it. *)

type t
(** A schema plus a BDD root in the manager of its universe.  Every
    binary operation below raises {!Type_error} on operands from
    different universes. *)

exception Type_error of string
(** Raised by the dynamic checks mirroring the paper's type rules
    (Figure 6) when used through the embedded API without the static
    checker. *)

val universe : t -> Universe.t
val schema : t -> Schema.t

(** {2 Construction} *)

val empty : Universe.t -> Schema.t -> t
(** The constant [0B] at a concrete schema. *)

val full : Universe.t -> Schema.t -> t
(** The constant [1B]: every tuple of the schema's domains.  Encodes the
    bound [value < Domain.size] per attribute, so non-power-of-two
    domains count correctly. *)

val of_tuples : Universe.t -> Schema.t -> int list list -> t
(** Build a relation from explicit tuples (objects listed in schema
    order) — the [new { o=>attr, ... }] literal, repeated.  Raises
    {!Type_error} on a tuple of the wrong arity or an object outside its
    attribute's domain, before any node is made.  The root is built
    bottom-up from the sorted tuples ({!Jedd_bdd.Fdd.of_values}), with
    no operation-cache traffic. *)

val tuple : Universe.t -> Schema.t -> int list -> t
(** [of_tuples] of one tuple. *)

(** {2 Set operations and comparison (§2.2.1)} *)

val union : ?label:string -> t -> t -> t
val inter : ?label:string -> t -> t -> t
val diff : ?label:string -> t -> t -> t

val equal : t -> t -> bool
(** Constant-time on BDDs once layouts agree (the paper's [==]). *)

val is_empty : t -> bool
val size : t -> int
(** Number of tuples (the paper's [size()]). *)

(** {2 Projection and attribute operations (§2.2.2)} *)

val project_away : ?label:string -> t -> Attribute.t list -> t
(** [(a=>) x]: existentially quantify the attributes out. *)

val rename : ?label:string -> t -> (Attribute.t * Attribute.t) list -> t
(** [(a=>b) x]: each [b] takes over [a]'s physical domain; no BDD work. *)

val copy :
  ?label:string ->
  ?phys:Physdom.t ->
  t ->
  Attribute.t ->
  as_:Attribute.t ->
  t
(** [copy x a ~as_:c]: add attribute [c] holding the same object as [a]
    in every tuple.  [c] lives in [?phys] if given (must not collide
    with the schema), otherwise in a scratch physical domain.  The
    paper's [(a=>b c) x] is [rename (copy x a ~as_:c) [(a, b)]]. *)

(** {2 Join and composition (§2.2.3)} *)

val join :
  ?label:string -> t -> Attribute.t list -> t -> Attribute.t list -> t
(** [join x as_ y bs]: [x{as_} >< y{bs}].  Keeps the compared attributes
    (from the left), plus all non-compared attributes of both sides. *)

val compose :
  ?label:string -> t -> Attribute.t list -> t -> Attribute.t list -> t
(** [compose x as_ y bs]: [x{as_} <> y{bs}].  Projects the compared
    attributes away, using the BDD relational product in one pass. *)

val select : ?label:string -> t -> (Attribute.t * int) list -> t
(** Restrict to tuples with the given objects in the given attributes.
    The paper has no selection operation — "construct a relation
    containing the desired objects and join it" (§2.2.4); this is that
    idiom packaged. *)

(** {2 Physical-domain control (§3.2.2)} *)

val replace : ?label:string -> t -> (Attribute.t * Physdom.t) list -> t
(** Move attributes to new physical domains (BuDDy [bdd_replace]). *)

val coerce : ?label:string -> t -> Schema.t -> t
(** Replace as needed so the relation has exactly the given layout.
    The schemas must have the same attributes. *)

(** {2 Extraction back to the host language (§2.3)} *)

val iter_tuples : t -> (int array -> unit) -> unit
(** Objects in schema order; the array is reused between calls. *)

val tuples : t -> int list list
(** All tuples, sorted, as lists of objects in schema order. *)

val iter_objects : t -> (int -> unit) -> unit
(** Single-attribute relations only: iterate the objects themselves
    (the paper's first iterator). *)

val pp : Format.formatter -> t -> unit
(** Figure 3-style table with attribute headers and object names. *)

val to_string : t -> string

(** {2 Levelized dumps and copies}

    The store's view of roots. *)

val export : t -> Jedd_bdd.Levelized.t
(** Dump the relation's root; levels are its universe's levels. *)

val import : Universe.t -> Schema.t -> Jedd_bdd.Levelized.t -> t
(** Rebuild a root in the universe and wrap it at the schema, whose
    levels must hold the dump's support (not checked here).  Validates
    the dump first ({!Jedd_bdd.Levelized.Malformed}). *)

val transfer : Jedd_bdd.Transfer.t -> Universe.t -> Schema.t -> t -> t
(** [transfer tr u sch r] copies [r]'s root into [u] through [tr]
    ({!Jedd_bdd.Transfer.copy}) and wraps the copy at [sch], whose
    levels must hold the copy's support (not checked here, as for
    {!import}).  The transfer must run from [r]'s manager to [u]'s
    ({!Type_error} otherwise). *)

(** {2 Memory management (§4.2)} *)

val dup : t -> t
(** A fresh handle on the same relation (same schema, same BDD, its own
    reference count).  Storing into a variable stores a [dup], so that
    releasing one handle can never invalidate another — the pass-by-value
    semantics of Jedd relations (§2.1). *)

val release : t -> unit
(** Eagerly drop this value's reference count.  Using the relation
    afterwards is a programming error.  Without [release], the
    finaliser drops the count when the OCaml GC proves the value dead. *)

val live_root_count : Universe.t -> int
(** Diagnostic: number of relation roots currently holding references. *)
