(** The jeddc pipeline (Figure 1): parse → semantic analysis →
    physical-domain assignment → ready-to-run program.

    Sources may be split over several compilation units (e.g. the five
    analyses of §5 compiled together — "All 5 combined" in Table 1):
    they are concatenated into one program sharing declarations. *)

type compiled = Lower.compiled = {
  tprog : Tast.tprogram;
  graph : Constraints.t;
  assignment : Encode.assignment;
  constraint_stats : Constraints.stats;
  weighted_stats : Lower.weighted_stats option;
      (** always [None]: kept for callers that build the record *)
}

type error = {
  message : string;
  pos : Ast.pos option;
  phase : string;  (** "parse", "typecheck", "assignment" *)
}

val compile :
  ?max_paths_per_class:int ->
  (string * string) list ->
  (compiled, error) result
(** [compile [(filename, source); ...]].  The physical-domain assignment
    is completed automatically from whatever the programmer specified,
    as the first model the SAT solver finds (§3.3.2); failures carry the
    §3.3.3 error messages. *)

val compile_exn :
  ?max_paths_per_class:int ->
  file:string ->
  string ->
  compiled

val instantiate :
  ?node_capacity:int ->
  ?node_limit:int ->
  ?backend:[ `Incore ] ->
  compiled ->
  Interp.t
(** Set up a runnable instance (universe + fields initialised, every
    method lowered).  [backend] is accepted and ignored: there is one
    engine, and existing callers still name it. *)

val error_to_string : error -> string
