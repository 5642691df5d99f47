module Solver = Jedd_sat.Solver

exception Unreachable_attribute of string list
exception Assignment_conflict of string

type sat_stats = {
  sat_vars : int;
  sat_clauses : int;
  sat_literals : int;
  encode_seconds : float;
  solve_seconds : float;
  paths_truncated : bool;
}

type assignment = {
  phys_of : Constraints.site -> string -> Tast.phys_info;
  widths : (string * int) list;
  stats : sat_stats;
}

(* What each original clause meant, for core-based diagnosis. *)
type clause_kind =
  | K_some of int  (* node *)
  | K_unique of int * int * int  (* node, p, p' *)
  | K_spec of int * int  (* node, p *)
  | K_conflict of int * int * int  (* node, node', p *)
  | K_equal of int * int * int  (* node, node', p *)
  | K_flow of int  (* node *)
  | K_path of int * int  (* class, p0 *)

(* The instance before any clause is written.  Variable [var enc i p]
   says node [i] lives in physical domain [p]; the path variables
   follow, numbered per class in enumeration order. *)
type encoding = {
  physdoms : Tast.phys_info array;
  phys_index : (string, int) Hashtbl.t;
  g : Constraints.t;
  fp : Flowpath.t;
  path_vars : (int * Flowpath.path) list array;  (* per class *)
  nvars : int;
  truncated : bool;
}

let prepare ?(max_paths_per_class = 8) (prog : Tast.tprogram)
    (g : Constraints.t) : encoding =
  let physdoms =
    Array.of_list
      (List.sort
         (fun (a : Tast.phys_info) b -> compare a.p_name b.p_name)
         prog.physdoms)
  in
  let np = Array.length physdoms in
  let n = Constraints.node_count g in
  if np = 0 && n > 0 then
    raise
      (Unreachable_attribute
         [ "the program declares no physical domains at all" ]);
  let phys_index = Hashtbl.create 16 in
  Array.iteri
    (fun i (p : Tast.phys_info) -> Hashtbl.add phys_index p.p_name i)
    physdoms;
  let fp = Flowpath.analyze g in
  let paths, truncated = Flowpath.enumerate fp ~max_per_class:max_paths_per_class in
  (* unreachable attributes: the first §3.3.3 failure mode *)
  let missing = Flowpath.unreachable fp paths in
  if missing <> [] then begin
    let msgs =
      List.concat_map
        (fun c ->
          List.map
            (fun i ->
              Printf.sprintf
                "no specified physical domain reaches %s; assign one explicitly"
                (Constraints.describe_node g i))
            fp.Flowpath.members.(c))
        missing
    in
    raise (Unreachable_attribute msgs)
  end;
  let next = ref (n * np) in
  let path_vars =
    Array.map
      (List.map (fun (p : Flowpath.path) ->
           incr next;
           (!next, p)))
      paths
  in
  { physdoms; phys_index; g; fp; path_vars; nvars = !next; truncated }

let var enc node p = (node * Array.length enc.physdoms) + p + 1

(* The generator of clause types 1-7: hands every clause, in clause-id
   order, to [emit] together with its meaning.  Solving streams them
   into a solver and keeps nothing per clause; diagnosis and DIMACS
   output run it again with a recording sink, and since the order is
   deterministic the recorded ids are the solver's. *)
let generate enc (emit : clause_kind -> int list -> unit) =
  let np = Array.length enc.physdoms in
  let n = Constraints.node_count enc.g in
  let var = var enc in
  (* 1: each attribute gets some physical domain *)
  for i = 0 to n - 1 do
    emit (K_some i) (List.init np (fun p -> var i p))
  done;
  (* 2: ... and not two *)
  for i = 0 to n - 1 do
    for p = 0 to np - 1 do
      for p' = p + 1 to np - 1 do
        emit (K_unique (i, p, p')) [ -var i p; -var i p' ]
      done
    done
  done;
  (* 3: specified attributes *)
  List.iter
    (fun (i, (phys : Tast.phys_info)) ->
      let p = Hashtbl.find enc.phys_index phys.p_name in
      emit (K_spec (i, p)) [ var i p ])
    enc.g.Constraints.specified;
  (* 4: conflict edges *)
  List.iter
    (fun (i, j) ->
      for p = 0 to np - 1 do
        emit (K_conflict (i, j, p)) [ -var i p; -var j p ]
      done)
    enc.g.Constraints.conflict;
  (* 5: equality edges *)
  List.iter
    (fun (i, j) ->
      for p = 0 to np - 1 do
        emit (K_equal (i, j, p)) [ -var i p; var j p ];
        emit (K_equal (j, i, p)) [ -var j p; var i p ]
      done)
    enc.g.Constraints.equality;
  (* 6: at least one flow path per attribute instance *)
  for i = 0 to n - 1 do
    let c = enc.fp.Flowpath.class_of.(i) in
    emit (K_flow i) (List.map fst enc.path_vars.(c))
  done;
  (* 7: an active path assigns its domain along its length *)
  Array.iter
    (List.iter (fun (pv, (path : Flowpath.path)) ->
         let p0 = Hashtbl.find enc.phys_index path.start_phys.p_name in
         List.iter
           (fun cls ->
             List.iter
               (fun node -> emit (K_path (cls, p0)) [ -pv; var node p0 ])
               enc.fp.Flowpath.members.(cls))
           path.through))
    enc.path_vars

(* An empty solver with the instance's variables. *)
let fresh enc =
  let s = Solver.create () in
  for _ = 1 to enc.nvars do
    ignore (Solver.new_var s)
  done;
  s

(* Streaming sink: a fresh solver holding the instance. *)
let load enc =
  let s = fresh enc in
  generate enc (fun _ lits -> ignore (Solver.add_clause s lits));
  s

(* Recording sink: every clause's meaning and literals, by clause id. *)
let record enc =
  let kinds = ref [] and lits = ref [] in
  generate enc (fun k l ->
      kinds := k :: !kinds;
      lits := l :: !lits);
  (Array.of_list (List.rev !kinds), Array.of_list (List.rev !lits))

let dimacs ?max_paths_per_class prog g =
  let enc = prepare ?max_paths_per_class prog g in
  let acc = ref [] in
  generate enc (fun _ l -> acc := l :: !acc);
  { Jedd_sat.Dimacs.nvars = enc.nvars; clauses = List.rev !acc }

(* -- diagnosis (§3.3.3) ---------------------------------------------------- *)

(* A fresh solver holding the recorded clauses [ids] and then [extra]. *)
let rebuild enc lits ids extra =
  let s = fresh enc in
  List.iter (fun id -> ignore (Solver.add_clause s lits.(id))) ids;
  List.iter (fun l -> ignore (Solver.add_clause s l)) extra;
  s

let diagnose enc core =
  (* Shrink the core so the reported conflict is crisp, exactly as
     unsat-core extraction + manual inspection would give the paper's
     users.  Rebuilding is cheap: instances are a few hundred thousand
     binary clauses at worst and cores are small. *)
  let kinds, lits = record enc in
  let rebuild ids =
    let arr = Array.of_list ids in
    (rebuild enc lits ids [], fun local -> arr.(local))
  in
  let original_core = core in
  let core =
    if List.length core <= 60 then Solver.minimize_core ~rebuild core else core
  in
  let conflicts_in c =
    List.filter
      (fun id -> match kinds.(id) with K_conflict _ -> true | _ -> false)
      c
  in
  let conflict_clauses = conflicts_in core @ conflicts_in original_core in
  (* Prefer reporting the conflict on an expression (the paper's
     messages name e.g. the Compose_expression) over its variable or
     wrapper echoes. *)
  let on_expr id =
    match kinds.(id) with
    | K_conflict (i, j, _) ->
      let is_expr n =
        match enc.g.Constraints.nodes.(n).Constraints.site with
        | Constraints.S_expr _ -> true
        | _ -> false
      in
      is_expr i && is_expr j
    | _ -> false
  in
  let conflict_clause =
    match List.find_opt on_expr conflict_clauses with
    | Some id -> Some id
    | None -> (
      match conflict_clauses with id :: _ -> Some id | [] -> None)
  in
  match conflict_clause with
  | Some id -> (
    match kinds.(id) with
    | K_conflict (i, j, p) ->
      Printf.sprintf "Conflict between %s and %s over physical domain %s"
        (Constraints.describe_node enc.g i)
        (Constraints.describe_node enc.g j)
        enc.physdoms.(p).p_name
    | _ -> assert false)
  | None ->
    (* The §3.3.2 proposition says every core contains a conflict clause
       when the instance came from a well-formed graph; the remaining
       possibility is contradictory explicit specifications. *)
    let specs =
      List.filter_map
        (fun id ->
          match kinds.(id) with
          | K_spec (i, p) ->
            Some
              (Printf.sprintf "%s is pinned to %s"
                 (Constraints.describe_node enc.g i)
                 enc.physdoms.(p).p_name)
          | _ -> None)
        core
    in
    "Contradictory physical domain specifications: "
    ^ String.concat "; " specs

(* Hard equalities between the two nodes of each pair, in every domain. *)
let equal_clauses enc pairs =
  let np = Array.length enc.physdoms in
  List.concat_map
    (fun (i, j) ->
      List.concat
        (List.init np (fun p ->
             [ [ -var enc i p; var enc j p ]; [ -var enc j p; var enc i p ] ])))
    pairs

(* -- replace-site audit probe (jeddlint JL007/JL008) ----------------------- *)

type replace_probe =
  | Forced of string list
      (* the copy is unavoidable; the strings name the minimal set of
         conflicting constraints (a minimized unsat core) that forces it *)
  | Avoidable
      (* some satisfying assignment keeps this wrapper's domains equal:
         only the solver's global optimisation chose to break it *)

let probe_wrap_equal ?max_paths_per_class (prog : Tast.tprogram)
    (g : Constraints.t) ~eid : replace_probe =
  let enc = prepare ?max_paths_per_class prog g in
  (* the assignment edges the partitioning was allowed to break: the
     (expression, wrapper) node pair of every attribute of [eid] *)
  let pairs =
    let out = ref [] in
    Array.iteri
      (fun j (node : Constraints.node) ->
        match node.Constraints.site with
        | Constraints.S_wrap e when e = eid -> (
          match
            Hashtbl.find_opt g.Constraints.node_index
              (Constraints.S_expr eid, node.Constraints.attr.Tast.a_name)
          with
          | Some i -> out := (i, j) :: !out
          | None -> ())
        | _ -> ())
      g.Constraints.nodes;
    !out
  in
  (* probe clauses asserting the wrapper keeps its input's domains *)
  let probe_lits = equal_clauses enc pairs in
  let solver = load enc in
  let n_original = Solver.num_clauses solver in
  List.iter (fun lits -> ignore (Solver.add_clause solver lits)) probe_lits;
  match Solver.solve solver with
  | Solver.Sat -> Avoidable
  | Solver.Unsat ->
    let core =
      List.filter (fun id -> id < n_original) (Solver.unsat_core solver)
    in
    let kinds, lits = record enc in
    (* deletion-minimize the original-clause part of the core, keeping
       the probe clauses as fixed background on every candidate check *)
    let unsat_without ids =
      Solver.solve (rebuild enc lits ids probe_lits) = Solver.Unsat
    in
    let core =
      if List.length core > 60 then core
      else
        List.fold_left
          (fun kept id ->
            let rest = List.filter (fun x -> x <> id) kept in
            if unsat_without rest then rest else kept)
          core core
    in
    let describe id =
      match kinds.(id) with
      | K_spec (i, p) ->
        Some
          (Printf.sprintf "%s is pinned to %s"
             (Constraints.describe_node g i)
             enc.physdoms.(p).p_name)
      | K_equal (i, j, _) ->
        let i, j = if i <= j then (i, j) else (j, i) in
        Some
          (Printf.sprintf "%s must share a physical domain with %s"
             (Constraints.describe_node g i)
             (Constraints.describe_node g j))
      | K_conflict (i, j, _) ->
        let i, j = if i <= j then (i, j) else (j, i) in
        Some
          (Printf.sprintf "%s and %s must use distinct physical domains"
             (Constraints.describe_node g i)
             (Constraints.describe_node g j))
      | K_flow i ->
        Some
          (Printf.sprintf "%s must be reached by some specified domain"
             (Constraints.describe_node g i))
      | K_path (cls, p0) ->
        let who =
          match enc.fp.Flowpath.members.(cls) with
          | i :: _ -> Constraints.describe_node g i
          | [] -> "an attribute class"
        in
        Some
          (Printf.sprintf "the flow of %s constrains %s"
             enc.physdoms.(p0).p_name who)
      | K_some _ | K_unique _ -> None
    in
    let msgs = List.sort_uniq compare (List.filter_map describe core) in
    let msgs =
      if msgs = [] then
        [ "the surrounding constraints force distinct physical domains here" ]
      else msgs
    in
    Forced msgs

(* Decode a satisfied solver's model into an [assignment].  [phys_of]
   closes over the node index and the decoded domains only, so the
   solver does not outlive this call. *)
let decode enc solver ~encode_seconds ~solve_seconds : assignment =
  let np = Array.length enc.physdoms in
  let n = Constraints.node_count enc.g in
  let node_phys = Array.make n enc.physdoms.(0) in
  for i = 0 to n - 1 do
    let rec pick p =
      if p >= np then
        invalid_arg "Encode.solve: model assigns no physical domain"
      else if Solver.value solver (var enc i p) then enc.physdoms.(p)
      else pick (p + 1)
    in
    node_phys.(i) <- pick 0
  done;
  let node_index = enc.g.Constraints.node_index in
  let phys_of site attr_name =
    match Hashtbl.find_opt node_index (site, attr_name) with
    | Some i -> node_phys.(i)
    | None ->
      invalid_arg
        (Printf.sprintf "Encode.phys_of: unknown attribute %s" attr_name)
  in
  (* computed widths: every physical domain must hold the widest
     domain of any attribute assigned to it (§3.2.1) *)
  let widths = Hashtbl.create 16 in
  Array.iter
    (fun (p : Tast.phys_info) ->
      Hashtbl.replace widths p.p_name
        (max 1 (Option.value p.p_min_bits ~default:1)))
    enc.physdoms;
  let domain_bits (d : Tast.domain_info) =
    let rec go n acc = if n >= d.d_size then acc else go (n * 2) (acc + 1) in
    max 1 (go 1 0)
  in
  Array.iteri
    (fun i (node : Constraints.node) ->
      let p = node_phys.(i) in
      let need = domain_bits node.attr.a_domain in
      if need > Hashtbl.find widths p.p_name then
        Hashtbl.replace widths p.p_name need)
    enc.g.Constraints.nodes;
  {
    phys_of;
    widths = Hashtbl.fold (fun name w acc -> (name, w) :: acc) widths [];
    stats =
      {
        sat_vars = Solver.num_vars solver;
        sat_clauses = Solver.num_clauses solver;
        sat_literals = Solver.num_literals solver;
        encode_seconds;
        solve_seconds;
        paths_truncated = enc.truncated;
      };
  }

let solve ?max_paths_per_class (prog : Tast.tprogram) (g : Constraints.t) :
    assignment =
  let t0 = Sys.time () in
  let enc = prepare ?max_paths_per_class prog g in
  let solver = load enc in
  let t1 = Sys.time () in
  let result = Solver.solve solver in
  let t2 = Sys.time () in
  match result with
  | Solver.Unsat ->
    raise (Assignment_conflict (diagnose enc (Solver.unsat_core solver)))
  | Solver.Sat ->
    decode enc solver ~encode_seconds:(t1 -. t0) ~solve_seconds:(t2 -. t1)
