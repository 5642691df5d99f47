(* Call-graph construction: reachable methods from the entry points over
   the resolved call edges (the Call Graph module of Figure 2).

   Reachability is a monotone fixed point over two mutually recursive
   accumulators (reachable methods, reachable call sites), driven
   semi-naively through Incr.Fixpoint.  [runNaive] keeps the paper's
   original loop for the differential suite. *)

module P = Jedd_minijava.Program
module Interp = Jedd_lang.Interp
module R = Jedd_relation.Relation
module Fixpoint = Jedd_incr.Fixpoint

let source =
  "class CallGraph {\n\
  \  <callsite:C1, method:M1> callEdge;\n\
  \  <callsite:C1, srcmethod:M2> siteIn;\n\
  \  <method:M1> entry;\n\
  \  <method:M1> reachable = 0B;\n\
  \  <callsite:C1> reachableSites = 0B;\n\
  \  public <method:M1> seedCG() {\n\
  \    return entry;\n\
  \  }\n\
  \  public <callsite:C1> stepSites( <method:M1> dreach ) {\n\
  \    return siteIn{srcmethod} <> ((method=>srcmethod) dreach){srcmethod};\n\
  \  }\n\
  \  public <method:M1> stepReach( <callsite:C1> dsites ) {\n\
  \    return callEdge{callsite} <> dsites{callsite};\n\
  \  }\n\
  \  public void runNaive() {\n\
  \    reachable = entry;\n\
  \    <method:M1> delta = entry;\n\
  \    do {\n\
  \      <callsite:C1> sites = siteIn{srcmethod} <> ((method=>srcmethod) delta){srcmethod};\n\
  \      reachableSites |= sites;\n\
  \      <method:M1> tgts = callEdge{callsite} <> reachableSites{callsite};\n\
  \      delta = tgts - reachable;\n\
  \      reachable |= delta;\n\
  \    } while (delta != 0B);\n\
  \  }\n\
  }\n"

let load_facts inst (p : P.t) ~call_edges =
  Common.set_fact inst "CallGraph.callEdge" call_edges;
  Common.set_fact inst "CallGraph.siteIn"
    (List.map
       (fun (cs : P.call_site) -> [ cs.P.cs_id; cs.P.cs_in_method ])
       p.P.calls);
  Common.set_fact inst "CallGraph.entry"
    (List.map (fun m -> [ m ]) p.P.entry_methods)

(* Semi-naive solve from the current reachable/reachableSites state:
   cold from 0B, a warm resume after callEdge/siteIn/entry have grown. *)
let solve ?on_iter inst =
  let reach0 = Interp.get_field inst "CallGraph.reachable" in
  let sites0 = Interp.get_field inst "CallGraph.reachableSites" in
  let seed_reach = Common.call_rel inst "CallGraph.seedCG" [] in
  let seed_sites = Common.empty_rel inst "CallGraph.reachableSites" in
  let step ~deltas ~accs =
    Interp.set_field inst "CallGraph.reachable" accs.(0);
    Interp.set_field inst "CallGraph.reachableSites" accs.(1);
    let csites =
      Common.call_rel inst "CallGraph.stepSites" [ Common.arg deltas.(0) ]
    in
    let creach =
      Common.call_rel inst "CallGraph.stepReach" [ Common.arg deltas.(1) ]
    in
    [| creach; csites |]
  in
  let final, stats =
    Fixpoint.solve ?on_iter ~accs:[| reach0; sites0 |]
      ~seed:[| seed_reach; seed_sites |] ~step ()
  in
  R.release seed_reach;
  R.release seed_sites;
  Interp.set_field inst "CallGraph.reachable" final.(0);
  Interp.set_field inst "CallGraph.reachableSites" final.(1);
  Array.iter R.release final;
  stats

let run inst = ignore (solve inst)
let run_naive inst = ignore (Interp.call inst "CallGraph.runNaive" [])

let results inst = Common.get_tuples inst "CallGraph.reachable"
