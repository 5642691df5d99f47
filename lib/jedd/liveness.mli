(** Static liveness of relation variables (§4.2).

    "We perform a static liveness analysis on all relation variables,
    and at each point where a variable may become dead, we decrement the
    reference count of any BDD it may contain."

    [analyze] runs a backward may-live analysis over a method body
    (iterating loops to a fixpoint) and records, for each statement, the
    local variables and parameters whose last use is at that statement —
    [Lower] emits an [IKill] for each right after that statement's code,
    and the interpreter releases them there.  Fields are
    never killed (they stay live in their containers); a variable can be
    safely "killed" twice because releases are idempotent, which also
    covers the both-branches-of-an-if case. *)

type t

val analyze : Tast.tmeth -> t

val kills_after : t -> Tast.tstmt -> Tast.var_key list
(** Variables to release immediately after executing this statement
    occurrence (matched by physical identity). *)

val total_kill_sites : t -> int
(** Diagnostic: number of statements with at least one kill. *)
