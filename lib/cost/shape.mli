(** Abstract shape analysis: a per-expression estimate of relation
    layout width and BDD node count, computed over the typed AST after
    physical-domain assignment.

    Widths come straight from the assignment (each attribute instance's
    physical domain and the computed domain bit widths); node counts
    use saturating upper-bound formulas (an apply is bounded by the
    product of its operands, a relation by [2^bits]).  Estimates can be sharpened with observed
    sizes replayed from a profiler CSV ({!hints_of_csv}): a hint for an
    expression's source position overrides the formula at that node and
    flows into every enclosing estimate.

    Consumers: the JL202 join-blowup lint and the cost sections of
    [jeddc --domain-report]. *)

type estimate = {
  bits : int;  (** total bits of the expression's physical layout *)
  nodes : int;  (** predicted BDD node count (saturating) *)
}

type t

val analyze :
  ?hints:(string -> int option) ->
  Jedd_lang.Tast.tprogram ->
  Jedd_lang.Encode.assignment ->
  t
(** Estimate every relational expression in the program.  [hints] maps
    a source label ("file:line,col" — the profiler's operation label)
    to an observed node count. *)

val estimate : t -> int -> estimate option
(** Estimate for an expression id, if the analysis saw it. *)

val hints_of_csv : string -> string -> int option
(** [hints_of_csv path] parses a [jedd-profile] per-operation CSV and
    returns a label -> max observed [result_nodes] lookup.  Returns a
    function that is [None] everywhere if the file is missing or
    malformed. *)
