(* Quantitative companions to the boolean analyses (§5), on the
   terminal-valued mtbdd backend.

   Both analyses run an unmodified Jedd class from this directory on an
   [`Mtbdd] universe — the boolean fixpoints compute 0/1-weighted
   relations whose support is bit-identical to the in-core backend —
   and then extract genuinely quantitative answers with the weighted
   relation surface (project_sum / of_weighted_tuples):

   - allocation-count points-to: how many allocation sites each
     variable may point to (the counting projection of pt);
   - call-frequency weighted call graph: each resolved call edge
     carries a static execution frequency (the caller's Freq-style
     call-graph weight times a per-site factor), and summing the
     frequencies of a method's reachable incoming edges ranks method
     hotness.

   The correctness spine for both is differential: thresholding any
   weighted result at 1 must reproduce, tuple for tuple, what the
   boolean analyses compute in-core, and the counts must agree with
   recounting the boolean tuples by hand ({!recount_by_first}). *)

module P = Jedd_minijava.Program
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module R = Jedd_relation.Relation
module A = Jedd_relation.Attribute
module S = Jedd_relation.Schema

let attr_named schema name =
  List.find (fun a -> A.name a = name) (S.attrs schema)

(* Reference recount over boolean tuples: group by the first component,
   count tuples per group.  The hand-computed answer the weighted
   results are differenced against. *)
let recount_by_first tuples =
  let tbl = Hashtbl.create 64 in
  List.iter
    (function
      | key :: _ ->
        Hashtbl.replace tbl key
          (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)
      | [] -> ())
    tuples;
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) tbl [] |> List.sort compare

(* -- allocation-count points-to ----------------------------------------- *)

type alloc_counts = {
  ac_inst : Interp.t;  (* the mtbdd universe the analysis ran in *)
  ac_pt : R.t;  (* points-to support, 0/1-weighted *)
  ac_counts : R.t;  (* <var>, weight = number of allocation sites *)
}

let run_alloc_counts ?(node_capacity = 1 lsl 16) (p : P.t) =
  let compiled =
    match
      Driver.compile
        [ ("PointsTo.jedd", Common.preamble p ^ Pointsto.source) ]
    with
    | Ok c -> c
    | Error e ->
      failwith ("weighted points-to: " ^ Driver.error_to_string e)
  in
  let inst = Driver.instantiate ~node_capacity ~backend:`Mtbdd compiled in
  Pointsto.load_facts inst p;
  Pointsto.run inst;
  let pt = R.dup (Interp.get_field inst "PointsTo.pt") in
  let heap = attr_named (R.schema pt) "heap" in
  let counts = R.project_sum ~label:"alloc-counts" pt [ heap ] in
  { ac_inst = inst; ac_pt = pt; ac_counts = counts }

let alloc_counts_list t =
  R.fold_weighted t.ac_counts ~init:[] ~f:(fun acc tup w ->
      match tup with [ v ] -> (v, w) :: acc | _ -> acc)
  |> List.rev

(* -- call-frequency weighted call graph --------------------------------- *)

type call_freqs = {
  cf_inst : Interp.t;
  cf_edges : R.t;
      (* <callsite, method> restricted to reachable sites,
         weight = static call frequency *)
  cf_hot : R.t;  (* <method>, weight = summed reachable in-edge frequency *)
}

(* Static frequency per resolved call edge: propagate Freq-style
   call-graph weights over the subject program's own call graph
   (entries at weight 1, every call site multiplying by [site_factor],
   saturating), then weight each edge by its caller.  The [max 1] floor
   keeps the weighted relation's support exactly the boolean callEdge
   set, which the differential gate depends on. *)
let edge_weights ?(site_factor = 8) (p : P.t) ~call_edges =
  let in_method = Hashtbl.create 64 in
  List.iter
    (fun (cs : P.call_site) ->
      Hashtbl.replace in_method cs.P.cs_id cs.P.cs_in_method)
    p.P.calls;
  let edges =
    List.filter_map
      (function
        | [ cs; callee ] ->
          Option.map
            (fun caller -> (caller, callee, site_factor))
            (Hashtbl.find_opt in_method cs)
        | _ -> None)
      call_edges
  in
  let w =
    Jedd_cost.Freq.graph_weights ~n:p.P.n_methods ~entries:p.P.entry_methods
      ~edges
  in
  List.filter_map
    (function
      | [ cs; callee ] ->
        let freq =
          match Hashtbl.find_opt in_method cs with
          | Some caller ->
            max 1 (Jedd_cost.Freq.sat_mul w.(caller) site_factor)
          | None -> 1
        in
        Some ([ cs; callee ], freq)
      | _ -> None)
    call_edges

let run_call_freqs ?(node_capacity = 1 lsl 16) ?site_factor (p : P.t)
    ~call_edges =
  let compiled =
    match
      Driver.compile
        [ ("CallGraph.jedd", Common.preamble p ^ Callgraph.source) ]
    with
    | Ok c -> c
    | Error e ->
      failwith ("weighted call graph: " ^ Driver.error_to_string e)
  in
  let inst = Driver.instantiate ~node_capacity ~backend:`Mtbdd compiled in
  Callgraph.load_facts inst p ~call_edges;
  Callgraph.run inst;
  let u = Interp.universe inst in
  let ce_schema = R.schema (Interp.get_field inst "CallGraph.callEdge") in
  let weighted =
    R.of_weighted_tuples u ce_schema (edge_weights ?site_factor p ~call_edges)
  in
  (* Restrict to reachable call sites: intersection on the mtbdd backend
     is the pointwise product, so joining with the 0/1 reachableSites
     mask keeps every surviving edge's frequency unchanged. *)
  let sites = Interp.get_field inst "CallGraph.reachableSites" in
  let callsite = attr_named ce_schema "callsite" in
  let live =
    R.join ~label:"freq-edges" weighted [ callsite ] sites [ callsite ]
  in
  let hot = R.project_sum ~label:"method-hotness" live [ callsite ] in
  R.release weighted;
  { cf_inst = inst; cf_edges = live; cf_hot = hot }

let edge_freqs_list t =
  R.fold_weighted t.cf_edges ~init:[] ~f:(fun acc tup w ->
      match tup with [ cs; m ] -> ((cs, m), w) :: acc | _ -> acc)
  |> List.rev

let method_hotness_list t =
  R.fold_weighted t.cf_hot ~init:[] ~f:(fun acc tup w ->
      match tup with [ m ] -> (m, w) :: acc | _ -> acc)
  |> List.rev
