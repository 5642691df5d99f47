(** SAT encoding of the physical-domain-assignment problem — clause
    types 1–7 of §3.3.2 — solving, decoding, and the unsat-core-based
    error reporting of §3.3.3.

    Clause types, in the paper's numbering:
    + every attribute instance gets some physical domain;
    + no attribute instance gets two;
    + programmer-specified attributes get their specified domain;
    + conflict edges: distinct domains;
    + equality edges: equal domains;
    + every attribute has at least one active flow path;
    + an active flow path assigns its domain to everything on it. *)

exception Unreachable_attribute of string list
(** No flow path reaches these attributes (detected while building
    clause 6); the messages are ready to print. *)

exception Assignment_conflict of string
(** The SAT instance is unsatisfiable; the payload is the paper-style
    error message extracted from the unsatisfiable core. *)

type sat_stats = {
  sat_vars : int;
  sat_clauses : int;
  sat_literals : int;
  encode_seconds : float;
      (** flow paths and clause types 1–7 streamed into the solver *)
  solve_seconds : float;  (** the CDCL search alone *)
  paths_truncated : bool;
}

type assignment = {
  phys_of : Constraints.site -> string -> Tast.phys_info;
      (** physical domain of an attribute instance *)
  widths : (string * int) list;  (** computed physical-domain widths *)
  stats : sat_stats;
}

val solve :
  ?max_paths_per_class:int -> Tast.tprogram -> Constraints.t -> assignment
(** Runs the whole §3.3.2 pipeline.  Raises {!Unreachable_attribute} or
    {!Assignment_conflict} on the two failure modes of §3.3.3. *)

(** Outcome of re-solving with a replace wrapper's assignment edges
    promoted to hard equalities, for the jeddlint replace audit. *)
type replace_probe =
  | Forced of string list
      (** unavoidable: a minimized unsat core, rendered as one message
          per conflicting constraint, explains why the copy must exist *)
  | Avoidable
      (** a satisfying assignment without this copy exists; the solver's
          global choice, not a hard conflict, introduced it *)

val probe_wrap_equal :
  ?max_paths_per_class:int ->
  Tast.tprogram ->
  Constraints.t ->
  eid:int ->
  replace_probe
(** Rebuild the clause-1–7 instance and additionally assert that every
    attribute of the dummy replace wrapper around expression [eid] keeps
    its input's physical domain — i.e. that the [IReplace] the
    assignment stage emitted there is unnecessary.  [Sat] means the copy
    was avoidable; [Unsat] yields a deletion-minimized core naming the
    constraints that force it (§3.3.3 machinery, aimed at one site). *)

val dimacs :
  ?max_paths_per_class:int ->
  Tast.tprogram ->
  Constraints.t ->
  Jedd_sat.Dimacs.problem
(** The clause-1–7 instance, clauses in id order, as [jeddc --dimacs]
    writes it.  Raises {!Unreachable_attribute} like {!solve}. *)
