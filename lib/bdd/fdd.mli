(** Finite-domain blocks: groups of consecutive (or interleaved) BDD
    variables encoding bounded integers, after BuDDy's [fdd] interface.
    Jedd physical domains are realised as one block each (§3.2.1).

    A block holds its variables' levels, which never change: the
    variable order is the one the allocations fix (§3.3.1). *)

type man = Manager.t
type node = Manager.node

type block
(** A block of BDD variables representing integers in [0, size). *)

val extdomain : man -> int -> block
(** [extdomain m size] allocates a block wide enough for values
    [0 .. size-1], with its bits consecutive at the bottom of the
    variable order. *)

val extdomain_bits : man -> int -> block
(** Allocate a block of exactly the given bit width. *)

val extdomains_interleaved : man -> int list -> block list
(** Allocate several blocks with their bits interleaved — the layout
    that makes equality/join BDDs linear-sized, which the paper's
    points-to work depends on.  Blocks keep their requested widths,
    aligned at the most significant bit; narrower blocks stop
    contributing to the interleave once exhausted. *)

val size : block -> int
(** Number of representable values, [2^width]. *)

val width : block -> int

val levels : block -> int array
(** The block's variable levels, most significant bit first (a fresh
    array). *)

val ithvar : man -> block -> int -> node
(** [ithvar m b v] is the cube asserting that the block holds value [v]. *)

val domain_cube : man -> block -> node
(** The varset cube of the block's variables (for quantification). *)

val less_than_const : man -> block -> int -> node
(** [less_than_const m b k] is the BDD asserting the block's value is
    strictly below [k] — how the runtime encodes the "full relation" 1B
    for domains whose size is not a power of two. *)

val equality : man -> block -> block -> node
(** BDD asserting two equally wide blocks hold the same value — the
    building-block of Jedd's attribute-copy operation. *)

val perm_pairs : block -> block -> (int * int) list
(** Level pairs moving a value from the first block to the second (feed
    to {!Replace.make_perm}). *)

val decode : block -> levels:int array -> bool array -> int
(** Reassemble an integer from an assignment produced by
    {!Enum.iter_assignments} over [levels] (which must contain the
    block's levels). *)
