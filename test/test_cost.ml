(* jeddcost: the interprocedural cost & shape analysis.

   Part 1 exercises the loop machinery on hand-built graphs AND on real
   [Cfg.build_ast] output (nested loops, multiple back edges,
   unreachable blocks after a return).  Part 2 checks the frequency
   analysis (fixed-point recognition, loop factors, call-graph
   propagation) and the shape estimates.  Part 3 snapshots the
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

let read_file path =
  let ic = open_in_bin (Fixture.path path) in
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

(* ---------------- part 3: JL201/JL202 goldens ---------------- *)

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
    Alcotest.test_case "cost defects golden json" `Quick
      test_cost_defects_golden_json;
    Alcotest.test_case "cost defects categories" `Quick
      test_cost_defects_categories;
  ]
