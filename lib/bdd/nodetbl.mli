(** Int-keyed node tables: the memo of a whole-graph traversal
    ({!Count.satcount}, {!Transfer.copy}), mapping node handles to
    non-negative ints.  Open addressing over two flat int arrays, so a
    probe allocates nothing and compares ints, not polymorphic keys. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] entries; it grows
    as needed. *)

val find : t -> Manager.node -> int
(** The value bound to the node, or [-1] when it has none. *)

val add : t -> Manager.node -> int -> unit
(** Bind a node that has no binding yet to a value [>= 0]. *)
