(** Copying BDDs from one manager into another, node by node (after
    CUDD's [Cudd_bddTransfer]).

    A transfer keeps one memo from source nodes to their copies, so the
    roots copied through it share structure in the destination exactly
    as they do in the source: each distinct node is rebuilt once, with
    one {!Manager.mk}, and neither manager's operation cache is read or
    written. *)

type t

exception Unmapped_level of int
(** Raised by {!copy} on a node at a source level that [levels] does
    not map. *)

val create : src:Manager.t -> dst:Manager.t -> levels:int array -> t
(** [levels.(l)] is the destination level of source level [l], or [-1]
    when [l] has none (so has every level past the array's end).  The
    mapped levels must be strictly increasing, so that the copy keeps
    the variable order, and must be variables of [dst]
    ([Invalid_argument] otherwise). *)

val src : t -> Manager.t
val dst : t -> Manager.t

val copy : t -> Manager.node -> Manager.node
(** Copy the BDD rooted at a node of [src] into [dst] and return the
    copy {e holding one external reference}, which the caller owns.
    The nodes of a copy in progress hold no reference; node allocation
    collects only on its way to {!Manager.Out_of_nodes}, and after any
    exception the transfer must not be used again.  The memo points
    into earlier copies, so each copy returned must keep a reference
    while the transfer is in use. *)
