(** Levelized BDD dumps: the portable on-disk shape of a BDD shared by
    the serialization layer and both relation backends.

    A dump stores the nodes of one rooted, reduced BDD grouped by level,
    levels ascending, exactly like the node files of the out-of-core
    backend (Adiar's levelized representation): within a level, nodes
    are addressed by their index in the level's arrays, and a child
    reference is a {e uid} packing [(level, index)] — or one of the two
    negative terminal uids.  The encoding constants match
    [Jedd_extmem.Ebdd], so extmem node files convert to dumps by an
    array copy and the in-core conversions here are the only nontrivial
    ones.

    Dumps are plain data (int arrays): they carry no manager or store
    handles and can be written to disk, hashed, and read back in a
    different process. *)

type t = {
  blocks : (int * int array * int array) array;
      (** [(level, lo, hi)], strictly ascending by level. *)
  root : int;  (** uid of the root (a terminal for constant BDDs). *)
}

(** {2 Uid encoding} *)

val t_false : int
val t_true : int
val pack : int -> int -> int
(** [pack level index]. *)

val lev : int -> int
val loc : int -> int
val is_term : int -> bool

(** {2 Well-formedness} *)

exception Malformed of string
(** Raised by {!validate} and {!to_manager} on a structurally invalid
    dump: unordered or duplicate levels, a child reference to a missing
    node, a child at or above its parent's level, or [lo = hi]
    (violating reducedness). *)

val validate : num_vars:int -> t -> unit
(** Every level must also lie below [num_vars], the variable count of
    the manager the dump is meant for. *)

val node_count : t -> int

val support : t -> int list
(** The levels that occur in the dump, ascending. *)

val map_levels : (int -> int) -> t -> t
(** Apply a {e strictly monotone} level renaming to every block and
    child uid.  Monotonicity keeps the dump levelized; it is checked and
    {!Malformed} is raised otherwise. *)

(** {2 In-core conversions} *)

val of_manager : Manager.t -> Manager.node -> t
(** Dump the BDD rooted at a node of the in-core manager.  Levels in the
    dump are the manager's {e current} levels. *)

val to_manager : Manager.t -> t -> Manager.node
(** Rebuild the dump bottom-up in the manager and return the root
    {e holding one external reference} (so an allocation-triggered
    collection can never sweep it); the caller owns that reference and
    must [delref] it once done.  Every level of the dump must be below
    [Manager.num_vars]. *)
