(* The system's work as the compile and solve workloads drive it: the
   jeddc front end on the combined five-analysis unit, and the sequential
   Figure 2 pipeline on a compiled program.  Every call goes to a public
   function of the library; with tracing on, each call is a span named
   after the layer metric it feeds. *)

module P = Jedd_minijava.Program
module Workload = Jedd_minijava.Workload
module Suite = Jedd_analyses.Suite
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module U = Jedd_relation.Universe
module A = Jedd_analyses
module Edit = Jedd_incr.Edit

let permutation rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* A relabelling: one permutation per id space.  Ids past a permutation
   (entities an edit adds) keep their number. *)
type labels = {
  cls : int array;
  sigs : int array;
  meths : int array;
  vars : int array;
  heaps : int array;
  fields : int array;
  sites : int array;
}

let draw_labels rng (p : P.t) =
  let perm n = permutation rng n in
  let cls = perm p.n_classes in
  let sigs = perm p.n_sigs in
  let meths = perm p.n_methods in
  let vars = perm p.n_vars in
  let heaps = perm p.n_heap in
  let fields = perm p.n_fields in
  let sites = perm (List.length p.calls) in
  { cls; sigs; meths; vars; heaps; fields; sites }

let map a x = if x < Array.length a then a.(x) else x

let relabel l (p : P.t) : P.t =
  let c = map l.cls and s = map l.sigs and m = map l.meths and v = map l.vars
  and h = map l.heaps and f = map l.fields and cs = map l.sites in
  let remap pi src img =
    let out = Array.make (Array.length src) 0 in
    Array.iteri (fun i x -> out.(pi i) <- img x) src;
    out
  in
  {
    p with
    extend = List.map (fun (a, b) -> (c a, c b)) p.extend;
    declares = List.map (fun (a, b, d) -> (c a, s b, m d)) p.declares;
    method_class = remap m p.method_class c;
    method_sig = remap m p.method_sig s;
    var_method = remap v p.var_method m;
    heap_type = remap h p.heap_type c;
    allocs = List.map (fun (a, b) -> (v a, h b)) p.allocs;
    assigns = List.map (fun (a, b) -> (v a, v b)) p.assigns;
    stores = List.map (fun (a, b, d) -> (v a, v b, f d)) p.stores;
    loads = List.map (fun (a, b, d) -> (v a, f b, v d)) p.loads;
    calls =
      List.map
        (fun (x : P.call_site) ->
          {
            P.cs_id = cs x.cs_id;
            cs_recv = v x.cs_recv;
            cs_sig = s x.cs_sig;
            cs_in_method = m x.cs_in_method;
          })
        p.calls;
    entry_methods = List.map m p.entry_methods;
  }

let relabel_edit l (e : Edit.t) : Edit.t =
  let c = map l.cls and s = map l.sigs and m = map l.meths and v = map l.vars
  and f = map l.fields and cs = map l.sites in
  match e with
  | Add_class { superclass } -> Add_class { superclass = Option.map c superclass }
  | Add_method r -> Add_method { r with cls = c r.cls; signature = s r.signature }
  | Add_field -> Add_field
  | Add_alloc { var; cls } -> Add_alloc { var = v var; cls = c cls }
  | Add_assign { src; dst } -> Add_assign { src = v src; dst = v dst }
  | Add_store { src; base; field } -> Add_store { src = v src; base = v base; field = f field }
  | Add_load { base; field; dst } -> Add_load { base = v base; field = f field; dst = v dst }
  | Add_callsite { recv; signature; in_method } ->
    Add_callsite { recv = v recv; signature = s signature; in_method = m in_method }
  | Remove_assign { src; dst } -> Remove_assign { src = v src; dst = v dst }
  | Remove_store { src; base; field } ->
    Remove_store { src = v src; base = v base; field = f field }
  | Remove_load { base; field; dst } -> Remove_load { base = v base; field = f field; dst = v dst }
  | Remove_callsite { callsite } -> Remove_callsite { callsite = cs callsite }
  | Remove_method { meth } -> Remove_method { meth = m meth }
  | Remove_class { cls } -> Remove_class { cls = c cls }

(* The benchmark's program for a seed: the javac profile's generator at
   45 classes (the paper's javac has 90) with the profile's own generator
   seed, relabelled by a permutation drawn from [seed].  Every seed gives
   the same program up to renaming, so the work an op does is the same
   while the facts, the BDD encodings and the query keys differ
   (METHODOLOGY.md explains both choices). *)
let base_program =
  lazy (Workload.generate { (Workload.profile_named "javac") with Workload.classes = 45 })

let labels seed = draw_labels (Random.State.make [| seed; 0x7e1a |]) (Lazy.force base_program)
let program seed = relabel (labels seed) (Lazy.force base_program)

let source p = Suite.combined_source p
let unit_name = "Combined.jedd"

(* Driver.compile, unchanged: the untraced op. *)
let compile_plain src =
  match Driver.compile [ (unit_name, src) ] with
  | Ok c -> c
  | Error e -> failwith ("compile: " ^ Driver.error_to_string e)

(* The same calls Driver.compile makes, one span each: parse, typecheck,
   constraint graph, SAT encoding + CDCL (Encode.solve), statistics. *)
let compile_traced src =
  let decls =
    Trace.span "lang.parse" (fun () ->
        Jedd_lang.Parser.parse_program ~file:unit_name src)
  in
  let tprog = Trace.span "lang.typecheck" (fun () -> Jedd_lang.Typecheck.check decls) in
  let graph = Trace.span "lang.constraints" (fun () -> Jedd_lang.Constraints.build tprog) in
  let assignment =
    Trace.span "lang.encode" (fun () ->
        let a = Jedd_lang.Encode.solve tprog graph in
        (* Encode.solve reports its CDCL time; recorded as a child span
           so the encode layer's self time excludes it *)
        let sat_ms = a.Jedd_lang.Encode.stats.solve_seconds *. 1000. in
        Trace.add_measured ~name:"sat.solve" ~t0:(Common.now () -. (sat_ms /. 1000.)) ~ms:sat_ms;
        a)
  in
  let constraint_stats =
    Trace.span "lang.constraints" (fun () -> Jedd_lang.Constraints.stats tprog graph)
  in
  { Driver.tprog; graph; assignment; constraint_stats; weighted_stats = None }

let emit c =
  Trace.span "lang.emit" (fun () -> Jedd_lang.Emit_java.emit_program c)

let replace_sites c =
  let _, prov = Jedd_lang.Lower.lower_program_ex c in
  List.length prov.Jedd_lang.Lower.pp_replaces

let sat_counts (c : Driver.compiled) =
  let s = c.assignment.Jedd_lang.Encode.stats in
  (s.sat_vars, s.sat_clauses)

(* BDD-layer counters over one solve, read from outside through
   Universe.bdd_delta_since and Manager.peak_nodes. *)
type bdd_counts = {
  lookups : int;
  hits : int;
  evictions : int;
  gcs : int;
  gc_ms : float;
  grows : int;
  peak_nodes : int;
}

(* One solve op: instantiate a fresh in-core universe for the compiled
   program, then load_facts -> run -> results for each analysis in
   Figure 2 order (the sequential path of Suite.run_combined). *)
let solve ?on_universe (c : Driver.compiled) (p : P.t) =
  let inst =
    Trace.span "interp.instantiate" (fun () ->
        Driver.instantiate ~node_capacity:(1 lsl 16) ~backend:`Incore c)
  in
  let u = Interp.universe inst in
  let snap = U.bdd_snapshot u in
  Option.iter (fun f -> f u) on_universe;
  let load f = Trace.span "analyses.load" f in
  let results f = Trace.span "analyses.results" f in
  load (fun () -> A.Hierarchy.load_facts inst p);
  Trace.span "analyses.hierarchy" (fun () -> A.Hierarchy.run inst);
  let subtypes = results (fun () -> A.Hierarchy.results inst) in
  load (fun () -> A.Pointsto.load_facts inst p);
  Trace.span "analyses.pointsto" (fun () -> A.Pointsto.run inst);
  let pt = results (fun () -> A.Pointsto.results inst) in
  load (fun () -> A.Vcall.load_facts inst p);
  let recv = results (fun () -> Suite.receiver_types p pt) in
  Trace.span "analyses.vcall" (fun () -> A.Vcall.run inst recv);
  let resolved = results (fun () -> A.Vcall.results inst) in
  let call_edges = results (fun () -> A.Vcall.call_edges inst) in
  load (fun () -> A.Callgraph.load_facts inst p ~call_edges);
  Trace.span "analyses.callgraph" (fun () -> A.Callgraph.run inst);
  let reachable = results (fun () -> A.Callgraph.results inst) in
  load (fun () -> A.Sideeffect.load_facts inst p ~pt ~call_edges);
  Trace.span "analyses.sideeffect" (fun () -> A.Sideeffect.run inst);
  let side_effects = results (fun () -> A.Sideeffect.results inst) in
  let d = U.bdd_delta_since u snap in
  let counts =
    {
      lookups = d.U.cache_hits + d.U.cache_misses;
      hits = d.U.cache_hits;
      evictions = d.U.cache_evictions;
      gcs = d.U.gcs;
      gc_ms = d.U.gc_millis;
      grows = d.U.grows;
      peak_nodes = Jedd_bdd.Manager.peak_nodes (U.manager u);
    }
  in
  ( inst,
    { Suite.subtypes; pt; resolved; call_edges; reachable; side_effects },
    counts )

(* relation.<op>_ms and _count, from a profiler Recorder attached at
   level Counts, the only level that fires Universe.set_on_op (it also
   runs nodecount and satcount on every op, hence a separate pass). *)
module Recorder = Jedd_profiler.Recorder

let relation_ops = [ "join"; "compose"; "replace"; "project"; "select" ]

let attach_recorder r u = Recorder.attach r u ~level:U.Counts

let relation_layers r ~per =
  let sums = Recorder.summaries r in
  List.concat_map
    (fun name ->
      let ms, n =
        List.fold_left
          (fun (ms, n) (s : Recorder.summary) ->
            if s.op = name then (ms +. s.total_millis, n + s.executions) else (ms, n))
          (0., 0) sums
      in
      [ ("relation." ^ name ^ "_ms", ms /. per); ("relation." ^ name ^ "_count", float_of_int n /. per) ])
    relation_ops
