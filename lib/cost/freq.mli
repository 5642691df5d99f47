(** Interprocedural frequency analysis: a static execution-weight for
    every relational expression in a typed program.

    Per method, the typed-AST CFG ([Jedd_lang.Cfg.build_ast]) is run
    through {!Loops}: each natural loop multiplies the weight of its
    body nodes by [loop_factor], or by [fixpoint_factor] when the loop
    is recognised as a fixed-point loop (its body contains a condition
    with a relational comparison and a successor outside the body —
    the [while (old != current)] shape of §5's worklist solvers).
    Method weights then propagate over the call graph with the
    monotone worklist solver: the lattice is saturating integers under
    [max], call-site nodes multiply the caller's weight by the site's
    local loop weight, and recursion saturates at {!weight_cap}.

    The resulting per-expression weights drive the weighted
    domain-assignment objective ([Encode.solve_weighted]) and the
    JL201 cost lint. *)

type t

val weight_cap : int
(** Saturation bound for all weight arithmetic (10^9). *)

val sat_mul : int -> int -> int
(** Multiplication saturating at {!weight_cap} (0 absorbs). *)

val analyze :
  ?loop_factor:int -> ?fixpoint_factor:int -> Jedd_lang.Tast.tprogram -> t
(** Run the analysis.  [loop_factor] (default 8) scales plain loop
    bodies, [fixpoint_factor] (default 32) scales fixed-point loop
    bodies; nesting multiplies. *)

val method_weight : t -> string -> int
(** Call-graph weight of a qualified method name ([>= 1]; 1 for
    unknown names). *)

val weight : t -> int -> int
(** Static execution-weight of an expression id: the method weight
    times the product of the factors of every enclosing loop.  1 for
    ids the analysis never saw. *)

val depth : t -> int -> int
(** Loop-nesting depth of an expression id (0 outside all loops). *)

val in_fixpoint : t -> int -> bool
(** Whether the expression id sits inside a recognised fixed-point
    loop. *)
