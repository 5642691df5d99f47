open Jedd_lang.Tast
module G = Jedd_dataflow.Graph
module Cfg = Jedd_lang.Cfg

let weight_cap = 1_000_000_000

let sat_mul a b =
  if a <= 0 || b <= 0 then 0
  else if a > weight_cap / b then weight_cap
  else a * b

(* -- expression walks ------------------------------------------------------ *)

let rec iter_expr f (e : texpr) =
  f e;
  match e.edesc with
  | TVar _ | TEmpty | TFull | TLiteral _ -> ()
  | TBinop (_, a, b) ->
    iter_expr f a;
    iter_expr f b
  | TReplace (_, a) -> iter_expr f a
  | TJoin (_, a, _, b, _) ->
    iter_expr f a;
    iter_expr f b
  | TCall (_, args) ->
    List.iter
      (function Targ_rel e -> iter_expr f e | Targ_obj _ -> ())
      args

let rec iter_cond f (c : tcond) =
  match c with
  | TCmp_eq (a, b) | TCmp_ne (a, b) ->
    iter_expr f a;
    iter_expr f b
  | TNot c -> iter_cond f c
  | TAnd (a, b) | TOr (a, b) ->
    iter_cond f a;
    iter_cond f b
  | TBool _ -> ()

let stmt_exprs (s : tstmt) =
  match s with
  | TDecl (_, e, _) | TReturn (e, _) -> Option.to_list e
  | TAssign (_, _, e, _) | TOp_assign (_, _, _, e, _) -> [ e ]
  | TExpr e | TPrint e -> [ e ]
  | TIf _ | TWhile _ | TDo_while _ | TBlock _ -> []

let rec cond_has_cmp = function
  | TCmp_eq _ | TCmp_ne _ -> true
  | TNot c -> cond_has_cmp c
  | TAnd (a, b) | TOr (a, b) -> cond_has_cmp a || cond_has_cmp b
  | TBool _ -> false

(* -- per-method local analysis --------------------------------------------- *)

type site = { w : int; d : int; fix : bool }

type local = {
  l_cfg : Cfg.ast_cfg;
  l_node_w : int array;  (* per-node product of enclosing loop factors *)
  l_depth : int array;
  l_fix : bool array;  (* node sits in a fixed-point loop *)
  l_calls : (string * int) list;  (* callee, local weight at the site *)
}

let analyze_method ~loop_factor ~fixpoint_factor (m : tmeth) : local =
  let cfg = Cfg.build_ast m in
  let g = cfg.Cfg.agraph in
  let n = G.size g in
  let loops = Loops.natural_loops g ~entry:cfg.Cfg.aentry in
  let depth = Loops.nest_depth g loops in
  let node_w = Array.make n 1 in
  let fix = Array.make n false in
  List.iter
    (fun (l : Loops.loop) ->
      let in_body = Array.make n false in
      List.iter (fun i -> in_body.(i) <- true) l.Loops.body;
      (* fixed-point loop: some condition in the body compares
         relations and can leave the body (the loop's exit test) *)
      let is_fix =
        List.exists
          (fun i ->
            match cfg.Cfg.anodes.(i) with
            | Cfg.A_cond (c, _) ->
              cond_has_cmp c
              && List.exists (fun s -> not in_body.(s)) (G.succs g i)
            | _ -> false)
          l.Loops.body
      in
      let f = if is_fix then fixpoint_factor else loop_factor in
      List.iter
        (fun i ->
          node_w.(i) <- sat_mul node_w.(i) f;
          if is_fix then fix.(i) <- true)
        l.Loops.body)
    loops;
  (* call sites, weighted by the node they execute at *)
  let calls = ref [] in
  let call_at node e =
    match e.edesc with
    | TCall (callee, _) -> calls := (callee, node_w.(node)) :: !calls
    | _ -> ()
  in
  let cond_node =
    (* while / do-while condition nodes are not in any side table; find
       them by physical identity in the node array *)
    let all = ref [] in
    Array.iteri
      (fun i k ->
        match k with Cfg.A_cond (c, _) -> all := (c, i) :: !all | _ -> ())
      cfg.Cfg.anodes;
    fun c -> List.find_opt (fun (c0, _) -> c0 == c) !all |> Option.map snd
  in
  let rec walk s =
    match s with
    | TBlock ss -> List.iter walk ss
    | TIf (c, th, el) ->
      (match Cfg.Stmt_tbl.find_opt cfg.Cfg.aif_nodes s with
      | Some (cn, _) -> iter_cond (call_at cn) c
      | None -> ());
      walk th;
      Option.iter walk el
    | TWhile (c, body) ->
      Option.iter (fun cn -> iter_cond (call_at cn) c) (cond_node c);
      walk body
    | TDo_while (body, c) ->
      Option.iter (fun cn -> iter_cond (call_at cn) c) (cond_node c);
      walk body
    | TDecl _ | TAssign _ | TOp_assign _ | TExpr _ | TPrint _ | TReturn _
      -> (
      match Cfg.Stmt_tbl.find_opt cfg.Cfg.astmt_node s with
      | Some n -> List.iter (iter_expr (call_at n)) (stmt_exprs s)
      | None -> ())
  in
  List.iter walk m.tm_body;
  { l_cfg = cfg; l_node_w = node_w; l_depth = depth; l_fix = fix;
    l_calls = !calls }

(* -- interprocedural propagation ------------------------------------------- *)

module W_lattice = struct
  type t = int

  let bottom = 0
  let join = max
  let equal = Int.equal
end

module W_solver = Jedd_dataflow.Solver (W_lattice)

type t = {
  sites : (int, site) Hashtbl.t;  (* eid -> final weight/depth/fixpoint *)
  meths : (string, int) Hashtbl.t;
}

let analyze ?(loop_factor = 8) ?(fixpoint_factor = 32) (p : tprogram) : t =
  let locals =
    List.filter_map
      (fun name ->
        Option.map
          (fun m -> (name, analyze_method ~loop_factor ~fixpoint_factor m, m))
          (Hashtbl.find_opt p.methods name))
      p.method_order
  in
  (* call graph: one node per method plus one per call site; a call
     site multiplies its caller's weight by the site's loop weight *)
  let cg = G.create () in
  let midx = Hashtbl.create 16 in
  List.iter
    (fun (name, _, _) -> Hashtbl.replace midx name (G.add_node cg))
    locals;
  let cs_weight = Hashtbl.create 16 in
  List.iter
    (fun (name, l, _) ->
      let im = Hashtbl.find midx name in
      List.iter
        (fun (callee, w) ->
          match Hashtbl.find_opt midx callee with
          | Some ic ->
            let c = G.add_node cg in
            Hashtbl.replace cs_weight c w;
            G.add_edge cg im c;
            G.add_edge cg c ic
          | None -> ())
        l.l_calls)
    locals;
  let res =
    W_solver.run cg Jedd_dataflow.Forward
      ~init:(fun i -> if Hashtbl.mem cs_weight i then 0 else 1)
      ~transfer:(fun i fact ->
        match Hashtbl.find_opt cs_weight i with
        | Some w -> sat_mul fact w
        | None -> max 1 fact)
  in
  let meths = Hashtbl.create 16 in
  List.iter
    (fun (name, _, _) ->
      Hashtbl.replace meths name
        (max 1 (res.W_solver.after (Hashtbl.find midx name))))
    locals;
  (* second pass: stamp every expression id with its node's weight
     scaled by the method weight *)
  let sites = Hashtbl.create 64 in
  List.iter
    (fun (name, l, m) ->
      let mw = Hashtbl.find meths name in
      let cfg = l.l_cfg in
      let record node e =
        let s =
          {
            w = sat_mul mw l.l_node_w.(node);
            d = l.l_depth.(node);
            fix = l.l_fix.(node);
          }
        in
        iter_expr (fun e -> Hashtbl.replace sites e.eid s) e
      in
      let record_cond node c = iter_cond (record node) c in
      let cond_node =
        let all = ref [] in
        Array.iteri
          (fun i k ->
            match k with
            | Cfg.A_cond (c, _) -> all := (c, i) :: !all
            | _ -> ())
          cfg.Cfg.anodes;
        fun c -> List.find_opt (fun (c0, _) -> c0 == c) !all |> Option.map snd
      in
      let rec walk s =
        match s with
        | TBlock ss -> List.iter walk ss
        | TIf (c, th, el) ->
          (match Cfg.Stmt_tbl.find_opt cfg.Cfg.aif_nodes s with
          | Some (cn, _) -> record_cond cn c
          | None -> ());
          walk th;
          Option.iter walk el
        | TWhile (c, body) ->
          Option.iter (fun cn -> record_cond cn c) (cond_node c);
          walk body
        | TDo_while (body, c) ->
          Option.iter (fun cn -> record_cond cn c) (cond_node c);
          walk body
        | TDecl _ | TAssign _ | TOp_assign _ | TExpr _ | TPrint _
        | TReturn _ -> (
          match Cfg.Stmt_tbl.find_opt cfg.Cfg.astmt_node s with
          | Some n -> List.iter (record n) (stmt_exprs s)
          | None -> ())
      in
      List.iter walk m.tm_body)
    locals;
  { sites; meths }

let method_weight t name =
  Option.value (Hashtbl.find_opt t.meths name) ~default:1

let site t eid = Hashtbl.find_opt t.sites eid
let weight t eid = match site t eid with Some s -> s.w | None -> 1
let depth t eid = match site t eid with Some s -> s.d | None -> 0
let in_fixpoint t eid = match site t eid with Some s -> s.fix | None -> false
