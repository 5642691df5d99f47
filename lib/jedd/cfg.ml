(* Control-flow graphs over the typed AST and the lowered IR, built on
   the generic [Jedd_dataflow] engine.

   The AST graph drives the §4.2 liveness analysis and the source-level
   jeddlint checkers; the IR graph drives the static refcount-discipline
   verifier.  Both stay faithful to how [Interp] actually executes:
   short-circuit conditions become branching subgraphs, and the frees
   the interpreter synthesises after a relational comparison appear as
   explicit [IFree] nodes. *)

open Tast
module G = Jedd_dataflow.Graph

(* Statements carry no ids, but every occurrence is physically unique
   (the parser never shares nodes), so physical identity is a sound
   hash key. *)
module Stmt_tbl = Hashtbl.Make (struct
  type t = Tast.tstmt

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* -- typed-AST CFG --------------------------------------------------------- *)

type anode =
  | A_entry
  | A_exit
  | A_join  (* merge / no-op point *)
  | A_stmt of tstmt  (* an atomic statement occurrence *)
  | A_cond of tcond * Ast.pos  (* a full condition evaluation *)
  | A_branch of tcond * bool  (* refinement point on one outcome *)

type ast_cfg = {
  agraph : G.t;
  anodes : anode array;
  aentry : int;
  aexit : int;
  astmt_node : int Stmt_tbl.t;  (* atomic statement -> its node *)
  aif_nodes : (int * int) Stmt_tbl.t;  (* TIf -> (cond node, join node) *)
}

let rec cond_pos ~default (c : tcond) =
  match c with
  | TBool _ -> default
  | TNot c -> cond_pos ~default c
  | TAnd (a, _) | TOr (a, _) -> cond_pos ~default a
  | TCmp_eq (l, _) | TCmp_ne (l, _) -> l.epos

(* [dowhile_compat]: add an artificial entry->condition edge to each
   do-while, reproducing the historical liveness conservatism (the
   condition's uses are treated as live at loop entry even though the
   body always runs first).  Liveness wants it so kill sites stay
   exactly where [Lower] has always put them; the lint checkers build
   without it and get the precise first-iteration facts. *)
let build_ast ?(dowhile_compat = false) (m : tmeth) : ast_cfg =
  let g = G.create () in
  let kinds = ref [] in
  let add k =
    let id = G.add_node g in
    kinds := k :: !kinds;
    id
  in
  let edge = G.add_edge g in
  let astmt_node = Stmt_tbl.create 32 in
  let aif_nodes = Stmt_tbl.create 8 in
  let entry = add A_entry in
  let exit_ = add A_exit in
  let default = m.tm_pos in
  let rec stmt prev (s : tstmt) : int =
    match s with
    | TBlock ss -> List.fold_left stmt prev ss
    | TIf (c, th, el) ->
      let cn = add (A_cond (c, cond_pos ~default c)) in
      edge prev cn;
      let bt = add (A_branch (c, true)) and bf = add (A_branch (c, false)) in
      edge cn bt;
      edge cn bf;
      let t_end = stmt bt th in
      let e_end = match el with Some e -> stmt bf e | None -> bf in
      let j = add A_join in
      edge t_end j;
      edge e_end j;
      Stmt_tbl.replace aif_nodes s (cn, j);
      j
    | TWhile (c, body) ->
      let head = add A_join in
      edge prev head;
      let cn = add (A_cond (c, cond_pos ~default c)) in
      edge head cn;
      let bt = add (A_branch (c, true)) and bf = add (A_branch (c, false)) in
      edge cn bt;
      edge cn bf;
      let b_end = stmt bt body in
      edge b_end head;
      bf
    | TDo_while (body, c) ->
      let head = add A_join in
      edge prev head;
      let b_end = stmt head body in
      let cn = add (A_cond (c, cond_pos ~default c)) in
      edge b_end cn;
      if dowhile_compat then edge head cn;
      let bt = add (A_branch (c, true)) and bf = add (A_branch (c, false)) in
      edge cn bt;
      edge cn bf;
      edge bt head;
      bf
    | TReturn _ ->
      let n = add (A_stmt s) in
      edge prev n;
      edge n exit_;
      Stmt_tbl.replace astmt_node s n;
      (* unreachable continuation: keeps straight-line chaining simple *)
      add A_join
    | TDecl _ | TAssign _ | TOp_assign _ | TExpr _ | TPrint _ ->
      let n = add (A_stmt s) in
      edge prev n;
      Stmt_tbl.replace astmt_node s n;
      n
  in
  let last = List.fold_left stmt entry m.tm_body in
  edge last exit_;
  {
    agraph = g;
    anodes = Array.of_list (List.rev !kinds);
    aentry = entry;
    aexit = exit_;
    astmt_node;
    aif_nodes;
  }

(* -- lowered-IR CFG -------------------------------------------------------- *)

type inode =
  | I_entry
  | I_exit
  | I_join
  | I_instr of Ir.instr
  | I_cmp of Ir.reg * Ir.reg option
      (* a relational comparison reading its operand registers; the
         interpreter's synthesised frees follow as I_instr (IFree _) *)
  | I_ret of Ir.reg option  (* return consumes its register *)

type ir_cfg = {
  igraph : G.t;
  inodes : inode array;
  ientry : int;
  iexit : int;
}

let build_ir (m : Ir.cmethod) : ir_cfg =
  let g = G.create () in
  let kinds = ref [] in
  let add k =
    let id = G.add_node g in
    kinds := k :: !kinds;
    id
  in
  let edge = G.add_edge g in
  let entry = add I_entry in
  let exit_ = add I_exit in
  let chain prev is =
    List.fold_left
      (fun p i ->
        let n = add (I_instr i) in
        edge p n;
        n)
      prev is
  in
  (* conditions in continuation style: route the true/false outcomes to
     [t] / [f], mirroring [Interp.eval_cond]'s short-circuiting and
     its free-after-compare of the operand registers *)
  let rec cond prev (c : Ir.ccond) ~t ~f =
    match c with
    | Ir.Cbool true -> edge prev t
    | Ir.Cbool false -> edge prev f
    | Ir.Cnot c -> cond prev c ~t:f ~f:t
    | Ir.Cand (a, b) ->
      let mid = add I_join in
      cond prev a ~t:mid ~f;
      cond mid b ~t ~f
    | Ir.Cor (a, b) ->
      let mid = add I_join in
      cond prev a ~t ~f:mid;
      cond mid b ~t ~f
    | Ir.Ceq (code, r, rhs) | Ir.Cne (code, r, rhs) ->
      let p = chain prev code in
      let p, r2 =
        match rhs with
        | Ir.Rhs_reg (code2, r2) -> (chain p code2, Some r2)
        | Ir.Rhs_empty | Ir.Rhs_full -> (p, None)
      in
      let cmp = add (I_cmp (r, r2)) in
      edge p cmp;
      let p =
        match r2 with
        | Some r2 -> chain cmp [ Ir.IFree r2 ]
        | None -> cmp
      in
      let p = chain p [ Ir.IFree r ] in
      edge p t;
      edge p f
  in
  let rec stmt prev (s : Ir.cstmt) : int =
    match s with
    | Ir.CExec is -> chain prev is
    | Ir.CBlock b -> List.fold_left stmt prev b
    | Ir.CIf (c, th, el) ->
      let bt = add I_join and bf = add I_join and j = add I_join in
      cond prev c ~t:bt ~f:bf;
      let t_end = List.fold_left stmt bt th in
      let e_end = List.fold_left stmt bf el in
      edge t_end j;
      edge e_end j;
      j
    | Ir.CWhile (c, body) ->
      let head = add I_join and bt = add I_join and bf = add I_join in
      edge prev head;
      cond head c ~t:bt ~f:bf;
      let b_end = List.fold_left stmt bt body in
      edge b_end head;
      bf
    | Ir.CDoWhile (body, c) ->
      let head = add I_join and bf = add I_join in
      edge prev head;
      let b_end = List.fold_left stmt head body in
      cond b_end c ~t:head ~f:bf;
      bf
    | Ir.CReturn (code, r) ->
      let p = chain prev code in
      let n = add (I_ret r) in
      edge p n;
      edge n exit_;
      add I_join
  in
  let last = List.fold_left stmt entry m.Ir.c_body in
  edge last exit_;
  {
    igraph = g;
    inodes = Array.of_list (List.rev !kinds);
    ientry = entry;
    iexit = exit_;
  }
