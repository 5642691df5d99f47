(** A live analysis session: the combined five-analysis universe kept
    mutable (a "shadow" of the frozen serving generation), re-solved
    incrementally as program edits arrive.

    The session compiles the combined program with domain headroom
    ({!Suite.combined_source} [~headroom:true]) so edits fit the
    existing bit widths, keeps the previous fixed points in the field
    relations, and on each edit diffs the regenerated input facts
    against the loaded ones to decide, per analysis, between skipping
    (inputs unchanged), a semi-naive warm resume (inputs grew), a
    within-universe reset (inputs shrank or resolution targets may have
    changed), or — when an id space outgrows the compiled domains — a
    full recompile into a fresh universe.  Whatever the path, the
    resulting relations are tuple-for-tuple those of a from-scratch
    solve of the edited program: every fixed point is the unique least
    one, and relations are canonical BDDs. *)

module P = Jedd_minijava.Program

type t

type mode =
  | Incremental  (** warm resumes / skips only *)
  | Partial  (** some downstream stage reset within the universe *)
  | Rebuild  (** all stages reset within the universe *)
  | Recompile  (** domain capacity outgrown: fresh universe *)

val mode_to_string : mode -> string

type stage_stats = {
  stage : string;
  action : string;  (** "skip" | "resume" | "reset" *)
  iterations : int;
  delta_tuples : int;
  stage_millis : float;
}

type update_stats = {
  edit : string;
  mode : mode;
  millis : float;
  stages : stage_stats list;
}

val create :
  ?node_capacity:int ->
  ?backend:[ `Incore ] ->
  P.t ->
  t
(** Compile (with headroom), load the facts, and run the cold solve.
    [backend] is accepted and ignored: there is one engine, and existing
    callers still name it. *)

val program : t -> P.t
val inst : t -> Jedd_lang.Interp.t
(** The live instance — mutable; do not freeze it. *)

val results : t -> Suite.results
val update : t -> Jedd_incr.Edit.t -> update_stats
(** Apply the edit and re-solve.  @raise Jedd_incr.Edit.Invalid_edit on
    an invalid edit (the session is left unchanged). *)
