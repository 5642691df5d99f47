(* Tests for the five whole-program analyses (§5): each Jedd analysis is
   compiled, run on generated workloads, and compared against the
   reference set/worklist implementations in Jedd_minijava.Reference.
   The hand-coded BDD baseline is checked against the same reference. *)

module P = Jedd_minijava.Program
module Workload = Jedd_minijava.Workload
module Reference = Jedd_minijava.Reference
module Suite = Jedd_analyses.Suite
module Baseline = Jedd_analyses.Pointsto_baseline
module Driver = Jedd_lang.Driver

let tiny () = Workload.generate Workload.tiny

let small () =
  Workload.generate
    {
      Workload.tiny with
      Workload.name = "small";
      classes = 14;
      sigs_per_class = 3;
      vars_per_method = 4;
      assign_factor = 5;
      field_ops_per_method = 2;
      calls_per_method = 2;
      seed = 99;
    }

let test_all_sources_compile () =
  let p = tiny () in
  List.iter
    (fun (name, _) ->
      match Driver.compile [ (name, Suite.source_for p name) ] with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "%s does not compile: %s" name
          (Driver.error_to_string e))
    Suite.analyses

let test_combined_compiles () =
  let p = tiny () in
  match Driver.compile [ ("combined.jedd", Suite.combined_source p) ] with
  | Ok c ->
    let st = c.Driver.constraint_stats in
    Alcotest.(check bool) "combined is bigger than any single analysis" true
      (st.Jedd_lang.Constraints.n_rel_exprs > 40)
  | Error e -> Alcotest.failf "combined: %s" (Driver.error_to_string e)

(* the five results of one pipeline run against the reference *)
let check_results p (r : Suite.results) =
  Alcotest.(check (list (pair string int)))
    "relations differing from the reference (symmetric difference)" []
    (Suite.verify p r)

let check_against_reference p = check_results p (Suite.run_all p)

let test_suite_tiny () = check_against_reference (tiny ())
let test_suite_small () = check_against_reference (small ())

(* A wrong relation of the right size must not pass: swap one points-to
   tuple for one the reference does not contain. *)
let test_verify_compares_tuples () =
  let p = tiny () in
  let r = Suite.run_all p in
  let bogus = [ -1; -1 ] in
  let pt = bogus :: List.tl r.Suite.pt in
  Alcotest.(check int) "same cardinality" (List.length r.Suite.pt)
    (List.length pt);
  Alcotest.(check (list (pair string int)))
    "names pt" [ ("pt", 2) ]
    (Suite.verify p { r with Suite.pt })

(* The physical-domain declaration order fixes the variable order for
   the whole run.  A deliberately bad order — V1/V2 and H1/H2 pushed to
   opposite ends, so every copy rule's replace and every join over a
   pair pays for the spread, the worst case §3.3.1 warns about — may
   cost nodes but must reach the same points-to fixed point. *)
let test_pointsto_bad_order () =
  let module Pt = Jedd_analyses.Pointsto in
  let p = tiny () in
  let bad_order =
    [ "V1"; "T1"; "T2"; "T3"; "S1"; "M1"; "H1"; "M2"; "V2"; "C1"; "F1"; "H2" ]
  in
  let declarations =
    String.split_on_char '\n' (Jedd_analyses.Common.preamble p)
    |> List.filter (fun l -> not (String.starts_with ~prefix:"physdom " l))
    |> String.concat "\n"
  in
  let source =
    declarations
    ^ String.concat "" (List.map (Printf.sprintf "physdom %s;\n") bad_order)
    ^ Pt.source
  in
  let inst =
    match Driver.compile [ ("PointsTo.jedd", source) ] with
    | Ok c -> Driver.instantiate c
    | Error e -> Alcotest.fail (Driver.error_to_string e)
  in
  let _, _, physdoms = Jedd_lang.Interp.registries inst in
  Alcotest.(check (list string)) "declared in the bad order" bad_order
    (List.map fst physdoms);
  Alcotest.(check int) "V1 takes the top level" 0
    (Jedd_relation.Physdom.levels (List.assoc "V1" physdoms)).(0);
  Pt.load_facts inst p;
  Pt.run inst;
  Alcotest.(check (list (list int)))
    "points-to equal to the default order's" (Suite.run_all p).Suite.pt
    (Pt.results inst)

let test_baseline_matches_reference () =
  let p = small () in
  let b = Baseline.create p in
  Baseline.solve b;
  let ref_pt, _ = Reference.points_to p in
  Alcotest.(check (list (list int)))
    "baseline points-to"
    (Reference.IPS.elements ref_pt |> List.map (fun (a, b) -> [ a; b ]))
    (Baseline.pt_tuples b);
  Baseline.destroy b

let test_baseline_matches_jedd () =
  let p = tiny () in
  let r = Suite.run_all p in
  let b = Baseline.create p in
  Baseline.solve b;
  Alcotest.(check (list (list int)))
    "jedd and hand-coded agree" r.Suite.pt (Baseline.pt_tuples b);
  Baseline.destroy b

let test_workload_determinism () =
  let p1 = Workload.generate (Workload.profile_named "compress") in
  let p2 = Workload.generate (Workload.profile_named "compress") in
  Alcotest.(check int) "same classes" p1.P.n_classes p2.P.n_classes;
  Alcotest.(check bool) "same statements" true
    (p1.P.assigns = p2.P.assigns && p1.P.allocs = p2.P.allocs
   && p1.P.extend = p2.P.extend)

let test_workload_profiles_scale () =
  let sizes =
    List.map
      (fun (prof : Workload.profile) ->
        let p = Workload.generate prof in
        (prof.Workload.name, p.P.n_methods))
      Workload.profiles
  in
  let get n = List.assoc n sizes in
  Alcotest.(check bool) "compress is the smallest" true
    (List.for_all (fun (_, s) -> get "compress" <= s) sizes);
  Alcotest.(check bool) "jedit is the largest" true
    (List.for_all (fun (_, s) -> get "jedit" >= s) sizes)

(* ---------------- the textual frontend ---------------- *)

module Frontend = Jedd_minijava.Frontend

let shapes_src =
  "class A { method m() { } }\n\
   class B extends A {\n\
   \  method m() { x = new B; x.m(); }\n\
   \  method main() {\n\
   \    a = new A;\n\
   \    b = new B;\n\
   \    r = a;\n\
   \    r = b;\n\
   \    r.m();\n\
   \    a.f = b;\n\
   \    c = a.f;\n\
   \  }\n\
   }\n"

let test_frontend_parses () =
  let p = Frontend.parse shapes_src in
  Alcotest.(check int) "classes" 2 p.P.n_classes;
  Alcotest.(check int) "methods" 3 p.P.n_methods;
  Alcotest.(check int) "heap sites" 3 p.P.n_heap;
  Alcotest.(check (list (pair int int))) "hierarchy" [ (1, 0) ] p.P.extend;
  Alcotest.(check int) "two calls" 2 (List.length p.P.calls);
  Alcotest.(check int) "one store, one load" 1 (List.length p.P.stores);
  Alcotest.(check int) "loads" 1 (List.length p.P.loads)

let test_frontend_entry_is_main () =
  let p = Frontend.parse shapes_src in
  (* main is method id 2 (A.m=0, B.m=1, B.main=2) *)
  Alcotest.(check (list int)) "entry" [ 2 ] p.P.entry_methods

let test_frontend_pipeline () =
  let p = Frontend.parse shapes_src in
  check_against_reference p

let test_frontend_resolution () =
  let p = Frontend.parse shapes_src in
  let r = Suite.run_all p in
  (* r points to both A and B objects; r.m() resolves to A.m (inherited)
     and B.m (override) *)
  let rm_targets =
    List.filter_map
      (function
        | [ _cs; _sg; _ty; m ] -> Some m
        | _ -> None)
      r.Suite.resolved
    |> List.sort_uniq compare
  in
  Alcotest.(check bool) "both A.m and B.m are targets" true
    (List.mem 0 rm_targets && List.mem 1 rm_targets)

let test_frontend_errors () =
  let bad name src =
    match Frontend.parse src with
    | exception Frontend.Parse_error _ -> ()
    | _ -> Alcotest.failf "%s: expected parse error" name
  in
  bad "unknown superclass" "class A extends Nope { }";
  bad "duplicate class" "class A { } class A { }";
  bad "garbage statement" "class A { method m() { x + y; } }";
  bad "unterminated" "class A { method m() {"

let test_frontend_file () =
  (* the example shipped in examples/ parses and verifies *)
  let path =
    List.find Sys.file_exists
      [ "examples/shapes.mjava"; "../examples/shapes.mjava";
        "../../examples/shapes.mjava"; "../../../examples/shapes.mjava" ]
  in
  let p = Frontend.load_file path in
  check_against_reference p

let test_resolve_virtual_reference () =
  (* sanity of the reference resolver on a hand-built program *)
  let p =
    {
      P.empty with
      P.n_classes = 3;
      n_sigs = 2;
      n_methods = 3;
      extend = [ (1, 0); (2, 1) ];
      declares = [ (0, 0, 0); (0, 1, 1); (1, 1, 2) ];
      method_class = [| 0; 0; 1 |];
      method_sig = [| 0; 1; 1 |];
    }
  in
  Alcotest.(check (option int)) "inherited" (Some 0)
    (P.resolve_virtual p ~rectype:2 ~signature:0);
  Alcotest.(check (option int)) "overridden" (Some 2)
    (P.resolve_virtual p ~rectype:2 ~signature:1);
  Alcotest.(check (option int)) "direct" (Some 1)
    (P.resolve_virtual p ~rectype:0 ~signature:1)

let suite =
  [
    Alcotest.test_case "all five sources compile" `Quick
      test_all_sources_compile;
    Alcotest.test_case "combined program compiles" `Quick
      test_combined_compiles;
    Alcotest.test_case "suite matches reference (tiny)" `Quick test_suite_tiny;
    Alcotest.test_case "suite matches reference (small)" `Quick
      test_suite_small;
    Alcotest.test_case "verify compares tuples, not sizes" `Quick
      test_verify_compares_tuples;
    Alcotest.test_case "points-to independent of physdom order" `Quick
      test_pointsto_bad_order;
    Alcotest.test_case "baseline matches reference" `Quick
      test_baseline_matches_reference;
    Alcotest.test_case "baseline matches jedd" `Quick test_baseline_matches_jedd;
    Alcotest.test_case "workload determinism" `Quick test_workload_determinism;
    Alcotest.test_case "workload profiles scale" `Quick
      test_workload_profiles_scale;
    Alcotest.test_case "reference virtual resolution" `Quick
      test_resolve_virtual_reference;
    Alcotest.test_case "frontend parses" `Quick test_frontend_parses;
    Alcotest.test_case "frontend entry points" `Quick
      test_frontend_entry_is_main;
    Alcotest.test_case "frontend pipeline" `Quick test_frontend_pipeline;
    Alcotest.test_case "frontend resolution" `Quick test_frontend_resolution;
    Alcotest.test_case "frontend errors" `Quick test_frontend_errors;
    Alcotest.test_case "frontend example file" `Quick test_frontend_file;
  ]
