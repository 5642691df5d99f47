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

val of_values : man -> block array -> int list list -> node
(** [of_values m blocks tuples] is the set of [tuples], each listing one
    value per block in [blocks] order (the blocks pairwise disjoint).
    It is built bottom-up, without apply or the operation cache: each
    tuple is encoded once as a bit string in level order, the strings
    are sorted and deduplicated, and each distinct prefix costs one
    {!Manager.mk}.  Checking the tuples is the caller's part: only the
    low [width b] bits of a value are read, a missing value reads as 0
    and an extra one is ignored.  The result is unreferenced, as from
    {!Ops}. *)

val iter_values : man -> block array -> node -> (int array -> unit) -> unit
(** [iter_values m blocks f k] calls [k] once per tuple of values (in
    [blocks] order) satisfying [f], decoding each assignment through bit
    positions computed once per call.  The array is reused between
    calls.  [f] must depend only on the blocks' levels
    ([Invalid_argument] from {!Enum.iter_assignments} otherwise). *)

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

