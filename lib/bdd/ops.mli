(** Core ROBDD operations: negation, binary boolean connectives, and
    if-then-else, all memoised through the manager's operation cache.

    Every function takes the manager first.  Results are returned
    unreferenced; callers that want a result to survive a garbage
    collection must {!Manager.addref} it. *)

type man = Manager.t
type node = Manager.node

val bnot : man -> node -> node
(** Boolean negation. *)

val band : man -> node -> node -> node
val bor : man -> node -> node -> node
val bxor : man -> node -> node -> node
val bnand : man -> node -> node -> node
val bnor : man -> node -> node -> node
val bimp : man -> node -> node -> node
(** Implication [a => b]. *)

val bbiimp : man -> node -> node -> node
(** Bi-implication [a <=> b]. *)

val bdiff : man -> node -> node -> node
(** Set difference [a land (lnot b)]. *)

val ite : man -> node -> node -> node -> node
(** [ite m f g h] is if-then-else: [f&g | !f&h]. *)

val cube : man -> (int * bool) list -> node
(** [cube m assignment] builds the conjunction of literals given as
    [(level, polarity)] pairs.  Levels may be given in any order. *)

val restrict : man -> node -> (int * bool) list -> node
(** Cofactor with respect to a partial assignment of variables. *)
