(** Control-flow graphs over the typed AST and the lowered IR, built on
    the generic [Jedd_dataflow] engine.

    The AST graph drives the §4.2 liveness analysis and the
    source-level jeddlint checkers; the IR graph drives the static
    refcount-discipline verifier.  Short-circuit conditions become
    branching subgraphs, and the frees [Interp] performs after a
    relational comparison appear as explicit [IFree] instruction
    nodes, so IR-level analyses see exactly the transitions the
    interpreter performs. *)

(** Hashtable keyed by statement occurrence (physical identity). *)
module Stmt_tbl : Hashtbl.S with type key = Tast.tstmt

(** {1 Typed-AST CFG} *)

type anode =
  | A_entry
  | A_exit
  | A_join  (** merge / no-op point *)
  | A_stmt of Tast.tstmt  (** an atomic statement occurrence *)
  | A_cond of Tast.tcond * Ast.pos  (** a full condition evaluation *)
  | A_branch of Tast.tcond * bool
      (** refinement point reached when the condition took this outcome *)

type ast_cfg = {
  agraph : Jedd_dataflow.Graph.t;
  anodes : anode array;
  aentry : int;
  aexit : int;
  astmt_node : int Stmt_tbl.t;  (** atomic statement -> its node *)
  aif_nodes : (int * int) Stmt_tbl.t;  (** TIf -> (cond node, join node) *)
}

val build_ast : ?dowhile_compat:bool -> Tast.tmeth -> ast_cfg
(** Build the CFG of a method body.  [dowhile_compat] (default false)
    adds an artificial entry->condition edge to each do-while loop,
    reproducing the historical liveness conservatism; [Liveness] sets
    it so kill sites stay exactly where [Lower] has always put them,
    while the lint checkers build without it for precise
    first-iteration facts. *)

(** {1 Lowered-IR CFG} *)

type inode =
  | I_entry
  | I_exit
  | I_join
  | I_instr of Ir.instr
  | I_cmp of Ir.reg * Ir.reg option
      (** a relational comparison reading its operand registers *)
  | I_ret of Ir.reg option  (** return consumes its register *)

type ir_cfg = {
  igraph : Jedd_dataflow.Graph.t;
  inodes : inode array;
  ientry : int;
  iexit : int;
}

val build_ir : Ir.cmethod -> ir_cfg
