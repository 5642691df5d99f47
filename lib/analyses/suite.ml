(* Wiring of the five interrelated analyses, following Figure 2:

     Hierarchy ──> Virtual Call Resolution <── Points-to
                          │                        │
                          v                        v
                      Call Graph ──────────> Side Effects

   Each analysis is its own Jedd class; they exchange relations through
   the host (as the paper's modules exchange them through Soot). *)

module P = Jedd_minijava.Program
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp

let analyses =
  [
    ("Hierarchy", Hierarchy.source);
    ("Points-to Analysis", Pointsto.source);
    ("Virtual Call Resolution", Vcall.source);
    ("Call Graph", Callgraph.source);
    ("Side-effect Analysis", Sideeffect.source);
  ]

let combined_source ?headroom (p : P.t) =
  Common.preamble ?headroom p ^ String.concat "\n" (List.map snd analyses)

let source_for (p : P.t) name =
  Common.preamble p ^ List.assoc name analyses

type results = {
  subtypes : int list list;  (* (sub, super), strict *)
  pt : int list list;  (* (var, heap) *)
  resolved : int list list;  (* (callsite, sig, type, method) *)
  call_edges : int list list;  (* (callsite, method) *)
  reachable : int list list;  (* (method) *)
  side_effects : int list list;  (* (method, heap, field) *)
}

let compile_one (p : P.t) name =
  match Driver.compile [ (name ^ ".jedd", source_for p name) ] with
  | Ok c -> c
  | Error e ->
    failwith (Printf.sprintf "%s: %s" name (Driver.error_to_string e))

(* receiver types at each call site, from points-to results *)
let receiver_types (p : P.t) pt_tuples =
  let recv_pt = Hashtbl.create 256 in
  List.iter
    (fun t ->
      match t with
      | [ v; h ] -> Hashtbl.add recv_pt v h
      | _ -> assert false)
    pt_tuples;
  List.concat_map
    (fun (cs : P.call_site) ->
      List.map
        (fun h -> [ cs.P.cs_id; p.P.heap_type.(h); cs.P.cs_sig ])
        (Hashtbl.find_all recv_pt cs.P.cs_recv))
    p.P.calls
  |> List.sort_uniq compare

(* All five analyses in ONE universe (the paper's "All 5 combined"
   compilation): one shared physical-domain assignment, every result
   relation alive side by side at the end — the form the snapshot store
   persists and the query server serves.  The analyses address their
   fields by qualified name, so they run unchanged on the combined
   instance. *)
let run_combined ?(node_capacity = 1 lsl 16) ?node_limit ?headroom
    ?(naive = false) (p : P.t) : Interp.t * results =
  let compiled =
    match Driver.compile [ ("Combined.jedd", combined_source ?headroom p) ] with
    | Ok c -> c
    | Error e -> failwith ("combined: " ^ Driver.error_to_string e)
  in
  let inst = Driver.instantiate ~node_capacity ?node_limit compiled in
  Hierarchy.load_facts inst p;
  if naive then Hierarchy.run_naive inst else Hierarchy.run inst;
  let subtypes = Hierarchy.results inst in
  Pointsto.load_facts inst p;
  if naive then Pointsto.run_naive inst else Pointsto.run inst;
  let pt = Pointsto.results inst in
  Vcall.load_facts inst p;
  (if naive then Vcall.run_naive inst (receiver_types p pt)
   else Vcall.run inst (receiver_types p pt));
  let resolved = Vcall.results inst in
  let call_edges = Vcall.call_edges inst in
  Callgraph.load_facts inst p ~call_edges;
  if naive then Callgraph.run_naive inst else Callgraph.run inst;
  let reachable = Callgraph.results inst in
  Sideeffect.load_facts inst p ~pt ~call_edges;
  if naive then Sideeffect.run_naive inst else Sideeffect.run inst;
  let side_effects = Sideeffect.results inst in
  (inst, { subtypes; pt; resolved; call_edges; reachable; side_effects })

(* Size of the multiset symmetric difference of two tuple lists: a
   missing, an extra and a duplicated tuple each count once. *)
let sym_diff a b =
  let rec go a b n =
    match (a, b) with
    | [], l | l, [] -> n + List.length l
    | x :: a', y :: b' ->
      let c = compare x y in
      if c = 0 then go a' b' n
      else if c < 0 then go a' b (n + 1)
      else go a b' (n + 1)
  in
  go (List.sort compare a) (List.sort compare b) 0

(* The five relations the non-BDD reference analyses compute, compared
   tuple for tuple; [resolved] has no reference counterpart. *)
let verify (p : P.t) (r : results) =
  let module R = Jedd_minijava.Reference in
  let pairs s = List.map (fun (a, b) -> [ a; b ]) (R.IPS.elements s) in
  let pt, _ = R.points_to p in
  let targets = R.call_targets p pt in
  List.filter_map
    (fun (name, want, got) ->
      let d = sym_diff want got in
      if d = 0 then None else Some (name, d))
    [
      ( "subtypes",
        pairs (R.IPS.filter (fun (a, b) -> a <> b) (R.hierarchy p)),
        r.subtypes );
      ("pt", pairs pt, r.pt);
      ("call_edges", pairs targets, r.call_edges);
      ( "reachable",
        List.map (fun m -> [ m ]) (R.IS.elements (R.reachable p targets)),
        r.reachable );
      ( "side_effects",
        List.map
          (fun (a, b, c) -> [ a; b; c ])
          (R.ITS.elements (R.side_effects p pt targets)),
        r.side_effects );
    ]

(* Package a combined instance as a store snapshot: the instance's
   registries plus every field relation, under its qualified name. *)
let snapshot ?(meta = []) inst =
  let domains, attrs, physdoms = Interp.registries inst in
  {
    Jedd_store.Snapshot.u = Interp.universe inst;
    meta;
    domains;
    attrs;
    physdoms;
    relations = Interp.fields inst;
  }

let run_all ?(node_capacity = 1 lsl 16) ?node_limit (p : P.t) : results =
  let instantiate c = Driver.instantiate ~node_capacity ?node_limit c in
  (* 1. hierarchy *)
  let hier = instantiate (compile_one p "Hierarchy") in
  Hierarchy.load_facts hier p;
  Hierarchy.run hier;
  let subtypes = Hierarchy.results hier in
  (* 2. points-to *)
  let pta = instantiate (compile_one p "Points-to Analysis") in
  Pointsto.load_facts pta p;
  Pointsto.run pta;
  let pt = Pointsto.results pta in
  (* 3. virtual call resolution *)
  let vcr = instantiate (compile_one p "Virtual Call Resolution") in
  Vcall.load_facts vcr p;
  Vcall.run vcr (receiver_types p pt);
  let resolved = Vcall.results vcr in
  let call_edges = Vcall.call_edges vcr in
  (* 4. call graph *)
  let cg = instantiate (compile_one p "Call Graph") in
  Callgraph.load_facts cg p ~call_edges;
  Callgraph.run cg;
  let reachable = Callgraph.results cg in
  (* 5. side effects *)
  let se = instantiate (compile_one p "Side-effect Analysis") in
  Sideeffect.load_facts se p ~pt ~call_edges;
  Sideeffect.run se;
  let side_effects = Sideeffect.results se in
  { subtypes; pt; resolved; call_edges; reachable; side_effects }
