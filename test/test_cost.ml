(* jeddcost: the interprocedural cost & shape analysis.

   Part 1 exercises the loop machinery on hand-built graphs AND on real
   [Cfg.build_ast] output (nested loops, multiple back edges,
   unreachable blocks after a return).  Part 2 checks the frequency
   analysis (fixed-point recognition, loop factors, call-graph
   propagation) and the shape estimates.  Part 3 is the acceptance
   differential: the weighted domain assignment and the hybrid backend
   must both leave analysis results bit-identical.  Part 4 snapshots the
   JL201/JL202 lints over the seeded-defect example. *)

module Driver = Jedd_lang.Driver
module Cfg = Jedd_lang.Cfg
module Tast = Jedd_lang.Tast
module G = Jedd_dataflow.Graph
module Loops = Jedd_cost.Loops
module Freq = Jedd_cost.Freq
module Shape = Jedd_cost.Shape
module Lint = Jedd_lint.Driver
module Diag = Jedd_lint.Diag
module Suite = Jedd_analyses.Suite
module Workload = Jedd_minijava.Workload

(* `dune runtest` runs with cwd = _build/default/test (deps copied in);
   `dune exec test/test_main.exe` (make cost-smoke) runs from the
   project root — resolve fixture paths against both. *)
let read_file path =
  let path =
    if Sys.file_exists path then path
    else
      let alt =
        match String.length path >= 3 && String.sub path 0 3 = "../" with
        | true -> String.sub path 3 (String.length path - 3)
        | false -> Filename.concat "test" path
      in
      if Sys.file_exists alt then alt else path
  in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile ~name src =
  match Driver.compile [ (name, src) ] with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)

let method_named (c : Driver.compiled) q =
  Hashtbl.find c.Driver.tprog.Tast.methods q

(* ---------------- part 1: loop detection ---------------- *)

let graph ~nodes ~edges =
  let g = G.create () in
  for _ = 1 to nodes do
    ignore (G.add_node g)
  done;
  List.iter (fun (a, b) -> G.add_edge g a b) edges;
  g

(* 0 -> 1 -> 2 -> 3 -> 2 (inner), 3 -> 4 -> 1 (outer), 1 -> 5 *)
let test_loops_nested () =
  let g =
    graph ~nodes:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 2); (3, 4); (4, 1); (1, 5) ]
  in
  let loops = Loops.natural_loops g ~entry:0 in
  Alcotest.(check (list int))
    "two loops, headers 1 and 2" [ 1; 2 ]
    (List.map (fun (l : Loops.loop) -> l.Loops.header) loops);
  let outer = List.nth loops 0 and inner = List.nth loops 1 in
  Alcotest.(check (list int)) "inner body" [ 2; 3 ] inner.Loops.body;
  Alcotest.(check (list int)) "outer body" [ 1; 2; 3; 4 ] outer.Loops.body;
  let depth = Loops.nest_depth g loops in
  Alcotest.(check (list int))
    "nesting depths" [ 0; 1; 2; 2; 1; 0 ]
    (Array.to_list depth)

(* one header, two distinct back edges: 2 -> 1 and 3 -> 1 *)
let test_loops_multiple_back_edges () =
  let g =
    graph ~nodes:5 ~edges:[ (0, 1); (1, 2); (2, 1); (1, 3); (3, 1); (1, 4) ]
  in
  match Loops.natural_loops g ~entry:0 with
  | [ l ] ->
    Alcotest.(check int) "header" 1 l.Loops.header;
    Alcotest.(check int) "two back edges" 2 (List.length l.Loops.back_edges);
    Alcotest.(check (list int)) "merged body" [ 1; 2; 3 ] l.Loops.body;
    Alcotest.(check (list int))
      "depth 1 across the merged body" [ 0; 1; 1; 1; 0 ]
      (Array.to_list (Loops.nest_depth g [ l ]))
  | ls -> Alcotest.failf "expected one merged loop, got %d" (List.length ls)

(* a cycle the entry cannot reach must produce no loop at all *)
let test_loops_unreachable_cycle () =
  let g = graph ~nodes:4 ~edges:[ (0, 1); (2, 3); (3, 2) ] in
  let r = Loops.reachable g ~entry:0 in
  Alcotest.(check (list bool))
    "reachability" [ true; true; false; false ]
    (Array.to_list r);
  Alcotest.(check int)
    "no loops detected" 0
    (List.length (Loops.natural_loops g ~entry:0));
  let dom = Loops.dominators g ~entry:0 in
  Alcotest.(check bool)
    "unreachable rows are all-false" true
    (Array.for_all (fun b -> not b) dom.(2))

let nested_src =
  "domain D 8;\n\
   physdom P;\n\
   attribute a : D;\n\
   class C {\n\
  \  <a:P> r;\n\
  \  public void m() {\n\
  \    <a> x = r;\n\
  \    while (x != 0B) {\n\
  \      while (x != 0B) {\n\
  \        x = x - r;\n\
  \      }\n\
  \      x = x | r;\n\
  \    }\n\
  \    print x;\n\
  \  }\n\
   }\n"

(* the same shapes through the real CFG builder *)
let test_cfg_nested_loops () =
  let c = compile ~name:"nested.jedd" nested_src in
  let cfg = Cfg.build_ast (method_named c "C.m") in
  let loops = Loops.natural_loops cfg.Cfg.agraph ~entry:cfg.Cfg.aentry in
  Alcotest.(check int) "two nested loops" 2 (List.length loops);
  let depth = Loops.nest_depth cfg.Cfg.agraph loops in
  let max_depth = Array.fold_left max 0 depth in
  Alcotest.(check int) "innermost depth 2" 2 max_depth;
  Alcotest.(check int) "entry outside all loops" 0 depth.(cfg.Cfg.aentry);
  Alcotest.(check int) "exit outside all loops" 0 depth.(cfg.Cfg.aexit)

let test_cfg_unreachable_after_return () =
  let c =
    compile ~name:"unreach.jedd"
      "domain D 8;\n\
       physdom P;\n\
       attribute a : D;\n\
       class C {\n\
      \  <a:P> r;\n\
      \  public void m() {\n\
      \    <a> x = r;\n\
      \    print x;\n\
      \    return;\n\
      \    do { x = x | r; } while (x != 0B);\n\
      \    print x;\n\
      \  }\n\
       }\n"
  in
  let cfg = Cfg.build_ast (method_named c "C.m") in
  let r = Loops.reachable cfg.Cfg.agraph ~entry:cfg.Cfg.aentry in
  let unreachable =
    Array.fold_left (fun n b -> if b then n else n + 1) 0 r
  in
  Alcotest.(check bool) "some nodes unreachable" true (unreachable > 0);
  (* the whole do-while sits behind the return: no loop is reported *)
  Alcotest.(check int) "dead loop not detected" 0
    (List.length (Loops.natural_loops cfg.Cfg.agraph ~entry:cfg.Cfg.aentry))

(* ---------------- part 2: frequency + shape ---------------- *)

let freq_src =
  "domain D 8;\n\
   physdom P;\n\
   attribute a : D;\n\
   class C {\n\
  \  <a:P> r;\n\
  \  <a> helper() {\n\
  \    return r | r;\n\
  \  }\n\
  \  public void main() {\n\
  \    <a> x = r;\n\
  \    do {\n\
  \      x = x - helper();\n\
  \    } while (x != 0B);\n\
  \    print x;\n\
  \  }\n\
   }\n"

let exprs_on_line (c : Driver.compiled) line =
  List.filter
    (fun (e : Tast.texpr) -> e.Tast.epos.Jedd_lang.Ast.line = line)
    c.Driver.tprog.Tast.all_exprs

let test_freq_fixpoint_weights () =
  let c = compile ~name:"freq.jedd" freq_src in
  let f = Freq.analyze c.Driver.tprog in
  (* the do-while compares relations: fixpoint factor 32, not 8 *)
  let body = exprs_on_line c 12 in
  Alcotest.(check bool) "body exprs found" true (body <> []);
  List.iter
    (fun (e : Tast.texpr) ->
      Alcotest.(check int) "body weight" 32 (Freq.weight f e.Tast.eid);
      Alcotest.(check int) "body depth" 1 (Freq.depth f e.Tast.eid);
      Alcotest.(check bool) "in fixpoint" true (Freq.in_fixpoint f e.Tast.eid))
    body;
  (* call-graph propagation: helper is only called from inside the loop *)
  Alcotest.(check int) "helper method weight" 32
    (Freq.method_weight f "C.helper");
  List.iter
    (fun (e : Tast.texpr) ->
      Alcotest.(check int) "helper body weight" 32 (Freq.weight f e.Tast.eid))
    (exprs_on_line c 7);
  (* straight-line code outside the loop stays at weight 1 *)
  List.iter
    (fun (e : Tast.texpr) ->
      Alcotest.(check int) "preamble weight" 1 (Freq.weight f e.Tast.eid);
      Alcotest.(check bool) "not in fixpoint" false
        (Freq.in_fixpoint f e.Tast.eid))
    (exprs_on_line c 10)

let test_freq_plain_loop_factor () =
  let c = compile ~name:"nested.jedd" nested_src in
  let f = Freq.analyze ~loop_factor:8 ~fixpoint_factor:32 c.Driver.tprog in
  (* both whiles compare x against 0B, so both count as fixed-point
     loops: the innermost statement weighs 32 * 32 *)
  List.iter
    (fun (e : Tast.texpr) ->
      Alcotest.(check int) "inner weight" 1024 (Freq.weight f e.Tast.eid);
      Alcotest.(check int) "inner depth" 2 (Freq.depth f e.Tast.eid))
    (exprs_on_line c 10)

let test_shape_join_estimate () =
  let c =
    compile ~name:"examples/cost_defects.jedd"
      (read_file "../examples/cost_defects.jedd")
  in
  let sh = Shape.analyze c.Driver.tprog c.Driver.assignment in
  let joins =
    List.filter
      (fun (e : Tast.texpr) ->
        match e.Tast.edesc with Tast.TJoin _ -> true | _ -> false)
      c.Driver.tprog.Tast.all_exprs
  in
  match joins with
  | [ j ] -> (
    match Shape.estimate sh j.Tast.eid with
    | Some est ->
      Alcotest.(check int) "three 16-bit attrs" 48 est.Shape.bits;
      Alcotest.(check bool) "predicted blowup" true
        (est.Shape.nodes >= 1 lsl 20)
    | None -> Alcotest.fail "join has no estimate")
  | js -> Alcotest.failf "expected one join, got %d" (List.length js)

let test_shape_hints_override () =
  let c =
    compile ~name:"examples/cost_defects.jedd"
      (read_file "../examples/cost_defects.jedd")
  in
  let join_label = "examples/cost_defects.jedd:39,32" in
  let hints l = if l = join_label then Some 17 else None in
  let sh = Shape.analyze ~hints c.Driver.tprog c.Driver.assignment in
  let j =
    List.find
      (fun (e : Tast.texpr) ->
        match e.Tast.edesc with Tast.TJoin _ -> true | _ -> false)
      c.Driver.tprog.Tast.all_exprs
  in
  (match Shape.estimate sh j.Tast.eid with
  | Some est -> Alcotest.(check int) "observed size wins" 17 est.Shape.nodes
  | None -> Alcotest.fail "join has no estimate");
  (* and the sharpened estimate silences JL202 *)
  let r = Lint.lint ~hints c in
  Alcotest.(check bool) "JL202 suppressed" false
    (List.exists (fun (d : Diag.t) -> d.Diag.code = "JL202") r.Lint.diagnostics)

(* ---------------- part 3: acceptance differentials ---------------- *)

let results_equal tag (a : Suite.results) (b : Suite.results) =
  let check name f = Alcotest.(check (list (list int))) (tag ^ name) (f a) (f b) in
  check "/subtypes" (fun r -> r.Suite.subtypes);
  check "/pt" (fun r -> r.Suite.pt);
  check "/resolved" (fun r -> r.Suite.resolved);
  check "/call_edges" (fun r -> r.Suite.call_edges);
  check "/reachable" (fun r -> r.Suite.reachable);
  check "/side_effects" (fun r -> r.Suite.side_effects)

(* The five analyses as [Suite.run_all] runs them, one universe each,
   returning what the weighted objective is about: the emitted replace
   sites weighted by [Freq] (the sum the weighted solve minimises) and
   the replaces actually executed. *)
let replace_counts ~optimize p =
  let module A = Jedd_analyses in
  let module U = Jedd_relation.Universe in
  let static_weight = ref 0 and dynamic = ref 0 in
  let stage name run =
    let c = Suite.compile_one ~optimize p name in
    let _, prov = Jedd_lang.Lower.lower_program_ex c in
    let freq = Freq.analyze c.Driver.tprog in
    List.iter
      (fun (s : Jedd_lang.Lower.replace_site) ->
        static_weight := !static_weight + Freq.weight freq s.rs_eid)
      prov.Jedd_lang.Lower.pp_replaces;
    let inst = Driver.instantiate c in
    let u = Jedd_lang.Interp.universe inst in
    U.set_profile_level u U.Counts;
    U.set_on_op u (Some (fun e -> if e.U.op = "replace" then incr dynamic));
    let r = run inst in
    U.cleanup u;
    r
  in
  stage "Hierarchy" (fun i -> A.Hierarchy.load_facts i p; A.Hierarchy.run i);
  let pt =
    stage "Points-to Analysis" (fun i ->
        A.Pointsto.load_facts i p;
        A.Pointsto.run i;
        A.Pointsto.results i)
  in
  let call_edges =
    stage "Virtual Call Resolution" (fun i ->
        A.Vcall.load_facts i p;
        A.Vcall.run i (Suite.receiver_types p pt);
        A.Vcall.call_edges i)
  in
  stage "Call Graph" (fun i ->
      A.Callgraph.load_facts i p ~call_edges;
      A.Callgraph.run i);
  stage "Side-effect Analysis" (fun i ->
      A.Sideeffect.load_facts i p ~pt ~call_edges;
      A.Sideeffect.run i);
  (!static_weight, !dynamic)

let test_weighted_assignment_differential () =
  let p = Workload.generate Workload.tiny in
  results_equal "weighted" (Suite.run_all p) (Suite.run_all ~optimize:true p);
  (* weighting may only remove copies, never add them *)
  let w0, d0 = replace_counts ~optimize:false p in
  let w1, d1 = replace_counts ~optimize:true p in
  if w1 > w0 then
    Alcotest.failf "static replace weight rose under weighting: %d -> %d" w0 w1;
  if d1 > d0 then
    Alcotest.failf "dynamic replaces rose under weighting: %d -> %d" d0 d1

(* The loop-hoist microbenchmark: [x] flows from a P1-pinned field and
   is consumed three times inside a fixed-point loop at P2.  Both
   placements of the unavoidable copy satisfy the constraints; the
   unweighted tie-break lands it inside the loop (one replace per use
   per iteration), the weighted objective hoists it to the initializer
   (one replace, ever). *)
let hoist_src =
  "domain D 8;\n\
   physdom P1;\n\
   physdom P2;\n\
   attribute a : D;\n\
   class Hoist {\n\
  \  <a:P1> src;\n\
  \  <a:P2> acc;\n\
  \  public void run() {\n\
  \    src = 1B;\n\
  \    <a> x = src;\n\
  \    <a> old;\n\
  \    do {\n\
  \      old = acc;\n\
  \      acc = acc | x;\n\
  \      acc = acc | x;\n\
  \      acc = acc | x;\n\
  \    } while (old != acc);\n\
  \    print acc;\n\
  \  }\n\
   }\n"

(* Replaces executed by one run of [Hoist.run]. *)
let hoist_replaces ?weight () =
  let module U = Jedd_relation.Universe in
  let c =
    match Driver.compile ?weight [ ("hoist.jedd", hoist_src) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  let u = Jedd_lang.Interp.universe inst in
  let n = ref 0 in
  U.set_profile_level u U.Counts;
  U.set_on_op u (Some (fun e -> if e.U.op = "replace" then incr n));
  Jedd_lang.Interp.set_print_hook inst (fun _ -> ());
  ignore (Jedd_lang.Interp.call inst "Hoist.run" []);
  U.cleanup u;
  !n

let test_weighted_hoists_loop_copy () =
  let plain = hoist_replaces () in
  let weighted =
    hoist_replaces ~weight:(fun tprog -> Freq.weight (Freq.analyze tprog)) ()
  in
  if weighted >= plain then
    Alcotest.failf
      "weighted assignment did not hoist the loop copy: %d -> %d dynamic \
       replaces"
      plain weighted

let test_weighted_stats_reported () =
  let p = Workload.generate Workload.tiny in
  let c = Suite.compile_one ~optimize:true p "Points-to Analysis" in
  match c.Driver.weighted_stats with
  | None -> Alcotest.fail "weighted compile reported no weighted_stats"
  | Some w ->
    let open Jedd_lang.Encode in
    Alcotest.(check int) "kept + broken = sites" w.w_sites
      (w.w_kept + w.w_broken);
    Alcotest.(check bool) "solver ran" true (w.w_solves >= 1);
    (* the unweighted path stays the unweighted path *)
    Alcotest.(check bool) "unweighted has no stats" true
      ((Suite.compile_one p "Points-to Analysis").Driver.weighted_stats = None)

let test_hybrid_backend_differential () =
  let p = Workload.generate Workload.tiny in
  results_equal "hybrid"
    (Suite.run_all ~backend:`Incore p)
    (Suite.run_all ~backend:`Hybrid p)

(* Regression: under a cap tight enough that optimistic in-core
   attempts actually exhaust the table (compress at 3000 nodes — the
   pure in-core run aborts here), the fallback resumes the surrounding
   computation — the manager must raise [Out_of_nodes] without
   collecting (gc_on_exhaustion off) or the caller's unreferenced
   intermediates are recycled under it, which showed up as silently
   wrong relations (side-effect 7 vs 187 triples) before the contract
   existed.  The tiny profile never exhausts (checkpoint GC keeps it
   under any >= 1024 cap), so it cannot cover this path. *)
let test_hybrid_capped_differential () =
  let p = Workload.generate (Workload.profile_named "compress") in
  results_equal "hybrid-capped"
    (Suite.run_all p)
    (Suite.run_all ~backend:`Hybrid ~node_limit:3000 p)

(* ---------------- part 4: JL201/JL202 goldens ---------------- *)

let cost_defects () =
  compile ~name:"examples/cost_defects.jedd"
    (read_file "../examples/cost_defects.jedd")

let test_cost_defects_golden_json () =
  let r = Lint.lint (cost_defects ()) in
  let expected = String.trim (read_file "cost_defects.golden.json") in
  Alcotest.(check string) "--lint=json snapshot" expected (Lint.to_json r)

let test_cost_defects_categories () =
  let r = Lint.lint (cost_defects ()) in
  let codes = List.map (fun (d : Diag.t) -> d.Diag.code) r.Lint.diagnostics in
  List.iter
    (fun c -> Alcotest.(check bool) (c ^ " reported") true (List.mem c codes))
    [ "JL007"; "JL201"; "JL202" ];
  (* JL202 is the only warning; JL201 stays informational so the five
     analyses' own forced fixpoint copies keep make lint green *)
  Alcotest.(check int) "exit code 1 (warning)" 1 (Lint.exit_code r);
  let jl201 =
    List.find (fun (d : Diag.t) -> d.Diag.code = "JL201") r.Lint.diagnostics
  in
  Alcotest.(check bool) "JL201 is info" true (jl201.Diag.severity = Diag.Info);
  Alcotest.(check bool) "JL201 carries the blocking chain" true
    (List.exists
       (fun n ->
         String.length n >= 15 && String.sub n 0 15 = "blocked because")
       jl201.Diag.notes)

let suite =
  [
    Alcotest.test_case "nested natural loops" `Quick test_loops_nested;
    Alcotest.test_case "multiple back edges merge" `Quick
      test_loops_multiple_back_edges;
    Alcotest.test_case "unreachable cycle ignored" `Quick
      test_loops_unreachable_cycle;
    Alcotest.test_case "cfg: nested while loops" `Quick test_cfg_nested_loops;
    Alcotest.test_case "cfg: code after return" `Quick
      test_cfg_unreachable_after_return;
    Alcotest.test_case "freq: fixpoint + call graph" `Quick
      test_freq_fixpoint_weights;
    Alcotest.test_case "freq: nesting multiplies" `Quick
      test_freq_plain_loop_factor;
    Alcotest.test_case "shape: join estimate" `Quick test_shape_join_estimate;
    Alcotest.test_case "shape: profiler hints override" `Quick
      test_shape_hints_override;
    Alcotest.test_case "weighted assignment differential" `Quick
      test_weighted_assignment_differential;
    Alcotest.test_case "weighted stats reported" `Quick
      test_weighted_stats_reported;
    Alcotest.test_case "weighted assignment hoists a loop copy" `Quick
      test_weighted_hoists_loop_copy;
    Alcotest.test_case "hybrid backend differential" `Quick
      test_hybrid_backend_differential;
    Alcotest.test_case "hybrid capped differential (fallback resume)" `Quick
      test_hybrid_capped_differential;
    Alcotest.test_case "cost defects golden json" `Quick
      test_cost_defects_golden_json;
    Alcotest.test_case "cost defects categories" `Quick
      test_cost_defects_categories;
  ]
