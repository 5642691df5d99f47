(* Lowering: typed AST + physical-domain assignment -> IR (§3.2).

   All the decisions the paper's code generator makes become explicit
   here: which layout each constant/literal is materialised at, where a
   replace is inserted (exactly the assignment-edge breaks the SAT
   solution kept), when intermediates are freed (immediately after
   consumption), and where variables die (the §4.2 liveness analysis'
   kill sites). *)

open Tast
open Ir

(* Uninhabited: the physical-domain assignment has no weighted
   objective. *)
type weighted_stats = |

(* A compiled program: the typed AST with its physical-domain
   assignment.  [Driver] re-exports this record as [Driver.compiled];
   it lives here so that [Interp] can lower what it runs. *)
type compiled = {
  tprog : Tast.tprogram;
  graph : Constraints.t;
  assignment : Encode.assignment;
  constraint_stats : Constraints.stats;
  weighted_stats : weighted_stats option;  (* always [None] *)
}

(* Provenance the lint subsystem and the interpreter feed on: where
   each kept replace came from (for the §3.3.3-style SAT-core audit)
   and which source position each register was materialised at (for
   attributing IR-level diagnostics and the profiler's per-operation
   labels back to the program text). *)
type replace_site = {
  rs_method : string;  (* qualified method *)
  rs_eid : int;  (* the coerced subexpression's node id *)
  rs_pos : Ast.pos;
  rs_from : layout;  (* layout the subexpression computes *)
  rs_to : layout;  (* layout its consumer requires *)
}

type method_provenance = {
  mp_reg_pos : (reg, Ast.pos) Hashtbl.t;
  mp_replaces : replace_site list;  (* in lowering order *)
}

type program_provenance = {
  pp_methods : (string, method_provenance) Hashtbl.t;
  pp_replaces : replace_site list;  (* program order *)
}

(* The concrete layout the assignment gives an attribute list at a
   constraint site. *)
let layout_of (c : compiled) site (schema : attr_info list) : layout =
  List.map
    (fun (a : attr_info) ->
      (a.a_name, (c.assignment.Encode.phys_of site a.a_name).p_name))
    schema

(* The layout of a field, parameter or local variable's container. *)
let var_layout (c : compiled) key =
  layout_of c (Constraints.S_var key) (Hashtbl.find c.tprog.vars key).v_schema

type st = {
  compiled : compiled;
  meth_q : string;  (* qualified name of the method being lowered *)
  mutable next_reg : int;
  mutable code : instr list;  (* reversed *)
  reg_pos : (reg, Ast.pos) Hashtbl.t;
  mutable replaces : replace_site list;  (* reversed *)
}

let emit st i = st.code <- i :: st.code

let fresh st =
  let r = st.next_reg in
  st.next_reg <- r + 1;
  r

let take_code st =
  let c = List.rev st.code in
  st.code <- [];
  c


(* result: register plus whether the lowering owns it *)
let rec lower_expr st (e : texpr) : reg * bool =
  let ((r, _) as result) = lower_expr_raw st e in
  Hashtbl.replace st.reg_pos r e.epos;
  result

and lower_expr_raw st (e : texpr) : reg * bool =
  let site = Constraints.S_expr e.eid in
  match e.edesc with
  | TEmpty | TFull ->
    invalid_arg "Lower: 0B/1B lowered without an expected layout"
  | TVar (_, key) ->
    let r = fresh st in
    emit st (ILoad (r, key));
    (r, false)
  | TLiteral pieces ->
    let r = fresh st in
    let objs =
      List.map
        (fun (o, _) ->
          match o with
          | Tobj_int n -> Op_int n
          | Tobj_var (name, _) -> Op_objparam name)
        pieces
    in
    emit st (ILiteral (r, layout_of st.compiled site e.eschema, objs));
    (r, true)
  | TBinop (op, l, r_) ->
    let fallback = lazy (layout_of st.compiled site e.eschema) in
    let la = lower_consumed st l ~fallback in
    let rb = lower_consumed st r_ ~fallback in
    let d = fresh st in
    emit st
      (match op with
      | Ast.Union -> IUnion (d, fst la, fst rb)
      | Ast.Inter -> IInter (d, fst la, fst rb)
      | Ast.Diff -> IDiff (d, fst la, fst rb));
    free_if st la;
    free_if st rb;
    (d, true)
  | TReplace (reps, c) ->
    let src = lower_consumed st c ~fallback:(lazy (assert false)) in
    let current = ref src in
    (* every step of the chain is attributed to the replace expression *)
    let step () =
      let r = fresh st in
      Hashtbl.replace st.reg_pos r e.epos;
      r
    in
    List.iter
      (fun rep ->
        let d = step () in
        (match rep with
        | TProj a -> emit st (IProject (d, fst !current, [ a.a_name ]))
        | TRen (a, b) -> emit st (IRename (d, fst !current, [ (a.a_name, b.a_name) ]))
        | TCopy (a, b, c') ->
          let phys_c =
            (st.compiled.assignment.Encode.phys_of site c'.a_name).p_name
          in
          if a.a_name = b.a_name then
            emit st (ICopy (d, fst !current, a.a_name, c'.a_name, phys_c))
          else begin
            let mid = step () in
            emit st (ICopy (mid, fst !current, a.a_name, c'.a_name, phys_c));
            emit st (IRename (d, mid, [ (a.a_name, b.a_name) ]));
            emit st (IFree mid)
          end);
        free_if st !current;
        current := (d, true))
      reps;
    !current
  | TJoin (kind, l, la, r_, ra) ->
    let a = lower_consumed st l ~fallback:(lazy (assert false)) in
    let b = lower_consumed st r_ ~fallback:(lazy (assert false)) in
    let d = fresh st in
    let lnames = List.map (fun x -> x.a_name) la in
    let rnames = List.map (fun x -> x.a_name) ra in
    emit st
      (match kind with
      | Ast.Join -> IJoin (d, fst a, lnames, fst b, rnames)
      | Ast.Compose -> ICompose (d, fst a, lnames, fst b, rnames));
    free_if st a;
    free_if st b;
    (d, true)
  | TCall (q, args) ->
    let cargs = lower_args st q args in
    let d = fresh st in
    emit st (ICall (Some d, q, cargs));
    (d, true)

and free_if st (r, owned) = if owned then emit st (IFree r)

and lower_args st q (args : targ list) : call_arg list =
  let m = Hashtbl.find st.compiled.tprog.methods q in
  List.map2
    (fun (a : targ) (p : tparam) ->
      match (a, p) with
      | Targ_obj (Tobj_int n), _ -> Carg_obj (Op_int n)
      | Targ_obj (Tobj_var (name, _)), _ -> Carg_obj (Op_objparam name)
      | Targ_rel t, Tparam_rel key ->
        (* ownership transfers to the callee; the interpreter dups
           borrowed registers at the call *)
        Carg_reg (fst (lower_consumed st t ~fallback:(lazy (var_layout st.compiled key))))
      | Targ_rel _, Tparam_obj _ -> assert false)
    args m.tm_params

(* consume a subexpression through its dummy-replace wrapper *)
and lower_consumed st (child : texpr) ~fallback : reg * bool =
  if child.is_poly then begin
    let r = fresh st in
    emit st (IConst (r, child.edesc = TFull, Lazy.force fallback));
    Hashtbl.replace st.reg_pos r child.epos;
    (r, true)
  end
  else begin
    let (r, owned) = lower_expr st child in
    let layout site = layout_of st.compiled site child.eschema in
    let own_layout = layout (Constraints.S_expr child.eid) in
    let want = layout (Constraints.S_wrap child.eid) in
    if List.sort compare own_layout = List.sort compare want then (r, owned)
    else begin
      let d = fresh st in
      emit st (IReplace (d, r, want));
      if owned then emit st (IFree r);
      Hashtbl.replace st.reg_pos d child.epos;
      st.replaces <-
        {
          rs_method = st.meth_q;
          rs_eid = child.eid;
          rs_pos = child.epos;
          rs_from = own_layout;
          rs_to = want;
        }
        :: st.replaces;
      (d, true)
    end
  end

let lower_cond st (c : tcond) : ccond =
  let rec go (c : tcond) =
    match c with
    | TBool b -> Cbool b
    | TNot c -> Cnot (go c)
    | TAnd (a, b) -> Cand (go a, go b)
    | TOr (a, b) -> Cor (go a, go b)
    | TCmp_eq (l, r) | TCmp_ne (l, r) ->
      (* comparison operands are freed by the interpreter after
         comparing (it tracks register ownership) *)
      let l, r = if l.is_poly then (r, l) else (l, r) in
      let lr = lower_consumed st l ~fallback:(lazy (assert false)) in
      let lcode = take_code st in
      let rhs =
        if r.is_poly then
          match r.edesc with
          | TEmpty -> Rhs_empty
          | TFull -> Rhs_full
          | _ -> assert false
        else begin
          let rr = lower_consumed st r ~fallback:(lazy (assert false)) in
          Rhs_reg (take_code st, fst rr)
        end
      in
      (match c with
      | TCmp_eq _ -> Ceq (lcode, fst lr, rhs)
      | _ -> Cne (lcode, fst lr, rhs))
  in
  go c

let rec lower_stmt st liveness (s : tstmt) : cstmt =
  let kills () = List.map (fun k -> IKill k) (Liveness.kills_after liveness s) in
  match s with
  | TDecl (key, init, _) ->
    (match init with
    | None ->
      let r = fresh st in
      emit st (IConst (r, false, var_layout st.compiled key));
      emit st (IStore (key, r))
    | Some te ->
      let r = lower_consumed st te ~fallback:(lazy (var_layout st.compiled key)) in
      emit st (IStore (key, fst r)));
    CExec (take_code st @ kills ())
  | TAssign (key, _, te, _) ->
    let r = lower_consumed st te ~fallback:(lazy (var_layout st.compiled key)) in
    emit st (IStore (key, fst r));
    CExec (take_code st @ kills ())
  | TOp_assign (op, key, _, te, _) ->
    let r = lower_consumed st te ~fallback:(lazy (var_layout st.compiled key)) in
    emit st
      (match op with
      | Ast.Union -> IStoreUnion (key, fst r)
      | Ast.Inter -> IStoreInter (key, fst r)
      | Ast.Diff -> IStoreDiff (key, fst r));
    CExec (take_code st @ kills ())
  | TIf (c, th, el) ->
    let cc = lower_cond st c in
    let th' = [ lower_stmt st liveness th ] in
    let el' =
      match el with Some el -> [ lower_stmt st liveness el ] | None -> []
    in
    let k = kills () in
    if k = [] then CIf (cc, th', el')
    else CIf (cc, th' @ [ CExec k ], el' @ [ CExec k ])
  | TWhile (c, body) ->
    let cc = lower_cond st c in
    CWhile (cc, [ lower_stmt st liveness body ])
  | TDo_while (body, c) ->
    let body' = lower_stmt st liveness body in
    let cc = lower_cond st c in
    CDoWhile ([ body' ], cc)
  | TBlock stmts -> (
    let lowered = List.map (lower_stmt st liveness) stmts in
    match kills () with
    | [] -> CBlock lowered
    | k -> CBlock (lowered @ [ CExec k ]))
  | TReturn (None, _) -> CReturn ([], None)
  | TReturn (Some te, _) ->
    let meth = Hashtbl.find st.compiled.tprog.methods st.meth_q in
    let fallback =
      lazy
        (match meth.tm_return with
        | Some schema -> layout_of st.compiled (Constraints.S_return st.meth_q) schema
        | None -> invalid_arg "Lower: return value in a void method")
    in
    let r = lower_consumed st te ~fallback in
    CReturn (take_code st, Some (fst r))
  | TExpr te ->
    (match te.edesc with
    | TCall (q, args) -> emit st (ICall (None, q, lower_args st q args))
    | _ ->
      if not te.is_poly then begin
        let r = lower_expr st te in
        free_if st r
      end);
    CExec (take_code st @ kills ())
  | TPrint te ->
    if not te.is_poly then begin
      let r = lower_expr st te in
      emit st (IPrint (fst r));
      free_if st r
    end;
    CExec (take_code st @ kills ())

let lower_method_ex (compiled : compiled) q : cmethod * method_provenance
    =
  let m = Hashtbl.find compiled.tprog.methods q in
  let st =
    {
      compiled;
      meth_q = q;
      next_reg = 0;
      code = [];
      reg_pos = Hashtbl.create 32;
      replaces = [];
    }
  in
  let liveness = Liveness.analyze m in
  let body = List.map (lower_stmt st liveness) m.tm_body in
  assert (st.code = []);
  ( {
      c_qualified = q;
      c_params = m.tm_params;
      c_body = body;
      c_nregs = st.next_reg;
    },
    { mp_reg_pos = st.reg_pos; mp_replaces = List.rev st.replaces } )

let lower_method compiled q = fst (lower_method_ex compiled q)

let lower_program_ex (compiled : compiled) :
    (string, cmethod) Hashtbl.t * program_provenance =
  let out = Hashtbl.create 16 in
  let pp_methods = Hashtbl.create 16 in
  let replaces = ref [] in
  List.iter
    (fun q ->
      let meth, mp = lower_method_ex compiled q in
      Hashtbl.replace out q meth;
      Hashtbl.replace pp_methods q mp;
      replaces := List.rev_append mp.mp_replaces !replaces)
    compiled.tprog.method_order;
  (out, { pp_methods; pp_replaces = List.rev !replaces })

let lower_program (compiled : compiled) : (string, cmethod) Hashtbl.t =
  fst (lower_program_ex compiled)
