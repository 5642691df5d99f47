(** Physical domains: named blocks of BDD variables that attributes are
    assigned to (§2.1, §3.2.1).  The relative bit ordering of physical
    domains is fixed by declaration order — the ordering lever the
    paper's §3.3.1 discusses — and never changes afterwards. *)

type t

val declare : Universe.t -> name:string -> bits:int -> t
(** Allocate a physical domain of the given width at the bottom of the
    variable order. *)

val name : t -> string
val width : t -> int
val block : t -> Jedd_bdd.Fdd.block

val levels : t -> int array
(** Variable levels of the domain's block, MSB first. *)

val equal : t -> t -> bool

val fits : t -> Domain.t -> bool
(** Can this physical domain hold every object of the domain? *)
