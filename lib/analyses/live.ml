(* Live incremental analysis session: see live.mli for the contract.

   The update planner works on regenerated input-fact lists, not on the
   edit constructors: each analysis owns a group of input facts, and
   comparing the group before/after the edit decides the cheapest sound
   action.  The key soundness cases:

   - All five fixed points are monotone in their inputs, so when a
     group only *grows*, resuming semi-naively from the previous fixed
     point reaches exactly the from-scratch one (Incr.Fixpoint's
     iteration 0 re-fires every rule at full width against the changed
     inputs).

   - Virtual-call resolution is monotone in the *receiver triples*
     (each new triple is resolved independently on the worklist) but
     not in declaresMethod: a method added to a class can override the
     target an existing triple resolved to higher up the hierarchy.
     Growth of declares therefore resets [resolved] and re-resolves all
     triples (within the warm universe).  Growth of extend is safe: the
     edit model only adds extend edges for freshly allocated class ids,
     which no existing walk passes through.

   - Call graph and side effects are monotone in callEdge; when a vcall
     reset re-derives a callEdge set that is not a superset of the old
     one, they reset too (still within the warm universe). *)

module P = Jedd_minijava.Program
module Interp = Jedd_lang.Interp
module Driver = Jedd_lang.Driver
module R = Jedd_relation.Relation
module Edit = Jedd_incr.Edit
module Fixpoint = Jedd_incr.Fixpoint

type mode = Incremental | Partial | Rebuild | Recompile

let mode_to_string = function
  | Incremental -> "incremental"
  | Partial -> "partial"
  | Rebuild -> "rebuild"
  | Recompile -> "recompile"

type stage_stats = {
  stage : string;
  action : string;
  iterations : int;
  delta_tuples : int;
  stage_millis : float;
}

type update_stats = {
  edit : string;
  mode : mode;
  millis : float;
  stages : stage_stats list;
}

(* input-fact groups, as sorted unique tuple lists *)
type facts = {
  f_extend : int list list;
  f_declares : int list list;
  f_allocs : int list list;
  f_assigns : int list list;
  f_stores : int list list;
  f_loads : int list list;
  f_varm : int list list;
  f_sites : int list list;
  f_entry : int list list;
}

let sorted l = List.sort_uniq compare l

let facts_of (p : P.t) =
  {
    f_extend = sorted (List.map (fun (a, b) -> [ a; b ]) p.P.extend);
    f_declares = sorted (List.map (fun (a, b, c) -> [ a; b; c ]) p.P.declares);
    f_allocs = sorted (List.map (fun (a, b) -> [ a; b ]) p.P.allocs);
    f_assigns = sorted (List.map (fun (a, b) -> [ a; b ]) p.P.assigns);
    f_stores = sorted (List.map (fun (a, b, c) -> [ a; b; c ]) p.P.stores);
    f_loads = sorted (List.map (fun (a, b, c) -> [ a; b; c ]) p.P.loads);
    f_varm =
      sorted (Array.to_list (Array.mapi (fun v m -> [ v; m ]) p.P.var_method));
    f_sites =
      sorted
        (List.map
           (fun (c : P.call_site) ->
             [ c.P.cs_id; c.P.cs_recv; c.P.cs_sig; c.P.cs_in_method ])
           p.P.calls);
    f_entry = sorted (List.map (fun m -> [ m ]) p.P.entry_methods);
  }

(* both lists sorted unique *)
let rec subset a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | x :: a', y :: b' ->
    let c = compare x y in
    if c = 0 then subset a' b'
    else if c > 0 then subset (x :: a') b'
    else false

let rec list_diff a b =
  (* a \ b, both sorted unique *)
  match (a, b) with
  | [], _ -> []
  | a, [] -> a
  | x :: a', y :: b' ->
    let c = compare x y in
    if c = 0 then list_diff a' b'
    else if c < 0 then x :: list_diff a' b
    else list_diff a b'

type t = {
  mutable p : P.t;
  mutable inst : Interp.t;
  mutable caps : int array;
  mutable f : facts;
  mutable pt : int list list;
  mutable rts : int list list;
  mutable call_edges : int list list;
  node_capacity : int;
}

let caps_of (p : P.t) =
  let cap n = max 2 (Common.pad_for_headroom n) in
  [|
    cap p.P.n_classes;
    cap p.P.n_sigs;
    cap p.P.n_methods;
    cap p.P.n_vars;
    cap p.P.n_heap;
    cap p.P.n_fields;
    cap (Common.n_callsites p);
  |]

let fits caps (p : P.t) =
  p.P.n_classes <= caps.(0)
  && p.P.n_sigs <= caps.(1)
  && p.P.n_methods <= caps.(2)
  && p.P.n_vars <= caps.(3)
  && p.P.n_heap <= caps.(4)
  && p.P.n_fields <= caps.(5)
  && Common.n_callsites p <= caps.(6)

let now_ms () = Unix.gettimeofday () *. 1000.0

let stage_of name action t0 (st : Fixpoint.stats option) =
  {
    stage = name;
    action;
    iterations = (match st with Some s -> s.Fixpoint.iterations | None -> 0);
    delta_tuples =
      (match st with Some s -> Fixpoint.total_delta s | None -> 0);
    stage_millis = now_ms () -. t0;
  }

let skip name =
  {
    stage = name;
    action = "skip";
    iterations = 0;
    delta_tuples = 0;
    stage_millis = 0.0;
  }

(* The five solves in Figure 2 order, resuming from whatever the result
   fields currently hold (0B after a reset = cold). *)
let solve_all inst (p : P.t) ~action =
  let stage name f =
    let t0 = now_ms () in
    let st = f () in
    stage_of name action t0 (Some st)
  in
  let s1 =
    stage "hierarchy" (fun () ->
        Hierarchy.load_facts inst p;
        Hierarchy.solve inst)
  in
  let s2 =
    stage "pointsto" (fun () ->
        Pointsto.load_facts inst p;
        Pointsto.solve inst)
  in
  let pt = Pointsto.results inst in
  let rts = Suite.receiver_types p pt in
  let s3 =
    stage "vcall" (fun () ->
        Vcall.load_facts inst p;
        Vcall.solve_frontier inst rts)
  in
  let ce = Vcall.call_edges inst in
  let s4 =
    stage "callgraph" (fun () ->
        Callgraph.load_facts inst p ~call_edges:ce;
        Callgraph.solve inst)
  in
  let s5 =
    stage "sideeffect" (fun () ->
        Sideeffect.load_facts inst p ~pt ~call_edges:ce;
        Sideeffect.solve inst)
  in
  (pt, rts, ce, [ s1; s2; s3; s4; s5 ])

let instantiate ~node_capacity (p : P.t) =
  let src = Suite.combined_source ~headroom:true p in
  match Driver.compile [ ("Live.jedd", src) ] with
  | Ok c -> Driver.instantiate ~node_capacity c
  | Error e -> failwith ("live: " ^ Driver.error_to_string e)

let create ?(node_capacity = 1 lsl 16) ?backend:(_ : [ `Incore ] option)
    (p : P.t) =
  let inst = instantiate ~node_capacity p in
  let pt, rts, call_edges, _ = solve_all inst p ~action:"cold" in
  {
    p;
    inst;
    caps = caps_of p;
    f = facts_of p;
    pt;
    rts;
    call_edges;
    node_capacity;
  }

let program t = t.p
let inst t = t.inst

let results t : Suite.results =
  {
    Suite.subtypes = Hierarchy.results t.inst;
    pt = Pointsto.results t.inst;
    resolved = Vcall.results t.inst;
    call_edges = Vcall.call_edges t.inst;
    reachable = Callgraph.results t.inst;
    side_effects = Sideeffect.results t.inst;
  }

let reset_field inst field =
  let r = Common.empty_rel inst field in
  Interp.set_field inst field r;
  R.release r

let reset_all inst =
  List.iter (reset_field inst)
    [
      "Hierarchy.subtypes";
      "PointsTo.pt";
      "PointsTo.fieldpt";
      "VirtualCalls.resolved";
      "CallGraph.reachable";
      "CallGraph.reachableSites";
      "SideEffects.modSet";
    ]

let commit t p' f' pt rts ce =
  t.p <- p';
  t.f <- f';
  t.pt <- pt;
  t.rts <- rts;
  t.call_edges <- ce

let update t edit : update_stats =
  let p' = Edit.apply t.p edit in
  let t0 = now_ms () in
  let finish mode stages =
    { edit = Edit.describe edit; mode; millis = now_ms () -. t0; stages }
  in
  if not (fits t.caps p') then begin
    (* an id space outgrew the compiled bit widths: fresh universe *)
    let inst = instantiate ~node_capacity:t.node_capacity p' in
    let pt, rts, ce, stages = solve_all inst p' ~action:"recompile" in
    t.inst <- inst;
    t.caps <- caps_of p';
    commit t p' (facts_of p') pt rts ce;
    finish Recompile stages
  end
  else begin
    let f' = facts_of p' in
    let f = t.f in
    let monotone =
      subset f.f_extend f'.f_extend
      && subset f.f_declares f'.f_declares
      && subset f.f_allocs f'.f_allocs
      && subset f.f_assigns f'.f_assigns
      && subset f.f_stores f'.f_stores
      && subset f.f_loads f'.f_loads
      && subset f.f_varm f'.f_varm
      && subset f.f_sites f'.f_sites
      && subset f.f_entry f'.f_entry
    in
    if not monotone then begin
      (* facts disappeared: reset every accumulator, cold solve in the
         same (cache-warm) universe *)
      reset_all t.inst;
      let pt, rts, ce, stages = solve_all t.inst p' ~action:"reset" in
      commit t p' f' pt rts ce;
      finish Rebuild stages
    end
    else begin
      let had_reset = ref false in
      let stages = ref [] in
      let push s = stages := s :: !stages in
      let ext_changed = f'.f_extend <> f.f_extend in
      let dec_changed = f'.f_declares <> f.f_declares in
      let pt_changed =
        f'.f_allocs <> f.f_allocs
        || f'.f_assigns <> f.f_assigns
        || f'.f_stores <> f.f_stores
        || f'.f_loads <> f.f_loads
      in
      let sites_changed = f'.f_sites <> f.f_sites in
      let entry_changed = f'.f_entry <> f.f_entry in
      let varm_changed = f'.f_varm <> f.f_varm in
      (if ext_changed then begin
         let t1 = now_ms () in
         Hierarchy.load_facts t.inst p';
         push (stage_of "hierarchy" "resume" t1 (Some (Hierarchy.solve t.inst)))
       end
       else push (skip "hierarchy"));
      let pt =
        if pt_changed then begin
          let t1 = now_ms () in
          Pointsto.load_facts t.inst p';
          let st = Pointsto.solve t.inst in
          push (stage_of "pointsto" "resume" t1 (Some st));
          Pointsto.results t.inst
        end
        else begin
          push (skip "pointsto");
          t.pt
        end
      in
      (* 3. virtual calls: new receiver triples ride the worklist; a
         declares change may re-target existing triples, so it resets *)
      let rts = Suite.receiver_types p' pt in
      let new_triples = list_diff rts t.rts in
      let vcall_ran =
        if dec_changed then begin
          had_reset := true;
          let t1 = now_ms () in
          reset_field t.inst "VirtualCalls.resolved";
          Vcall.load_facts t.inst p';
          let st = Vcall.solve_frontier t.inst rts in
          push (stage_of "vcall" "reset" t1 (Some st));
          true
        end
        else if new_triples <> [] || ext_changed then begin
          let t1 = now_ms () in
          if ext_changed then Vcall.load_facts t.inst p';
          let st = Vcall.solve_frontier t.inst new_triples in
          push (stage_of "vcall" "resume" t1 (Some st));
          true
        end
        else begin
          push (skip "vcall");
          false
        end
      in
      let ce = if vcall_ran then Vcall.call_edges t.inst else t.call_edges in
      let ce_grew = subset t.call_edges ce in
      (if ce <> t.call_edges || sites_changed || entry_changed then begin
         let t1 = now_ms () in
         Callgraph.load_facts t.inst p' ~call_edges:ce;
         if ce_grew then
           push (stage_of "callgraph" "resume" t1 (Some (Callgraph.solve t.inst)))
         else begin
           had_reset := true;
           reset_field t.inst "CallGraph.reachable";
           reset_field t.inst "CallGraph.reachableSites";
           push (stage_of "callgraph" "reset" t1 (Some (Callgraph.solve t.inst)))
         end
       end
       else push (skip "callgraph"));
      (if
         ce <> t.call_edges || sites_changed || varm_changed || pt_changed
         || pt != t.pt
       then begin
         let t1 = now_ms () in
         Sideeffect.load_facts t.inst p' ~pt ~call_edges:ce;
         if ce_grew then
           push
             (stage_of "sideeffect" "resume" t1 (Some (Sideeffect.solve t.inst)))
         else begin
           had_reset := true;
           reset_field t.inst "SideEffects.modSet";
           push
             (stage_of "sideeffect" "reset" t1 (Some (Sideeffect.solve t.inst)))
         end
       end
       else push (skip "sideeffect"));
      commit t p' f' pt rts ce;
      finish (if !had_reset then Partial else Incremental) (List.rev !stages)
    end
  end
