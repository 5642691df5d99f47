(** Quantification over sets of variables, and the combined
    and-exists ("relational product") operation that Jedd compositions
    compile to.

    Variable sets are represented as positive cubes (conjunctions of the
    variables), as in BuDDy: build one with {!varset}. *)

type man = Manager.t
type node = Manager.node

val varset : man -> int list -> node
(** [varset m levels] builds the cube of the given variable levels. *)

val varset_levels : man -> node -> int list
(** Inverse of {!varset}: the levels mentioned in a cube, topmost first. *)

val exist : man -> node -> node -> node
(** [exist m f cube] existentially quantifies the variables of [cube]
    out of [f]. *)

val forall : man -> node -> node -> node
(** Universal quantification. *)

val relprod : man -> node -> node -> node -> node
(** [relprod m f g cube] computes [exist m (band m f g) cube] in one
    pass.  This is the primitive behind Jedd's composition ([<>]) and is
    measurably cheaper than join followed by projection — see the
    [ablation-compose] benchmark. *)

val support : man -> node -> node
(** The cube of all variables on which [f] depends. *)
