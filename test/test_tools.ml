(* Tests for the tooling around the core: the profiler (§4.3), the
   generated-Java emitter (Figure 1), Graphviz export, and multi-file
   compilation ("All 5 combined"-style builds). *)

module U = Jedd_relation.Universe
module Dom = Jedd_relation.Domain
module Phys = Jedd_relation.Physdom
module Attr = Jedd_relation.Attribute
module Schema = Jedd_relation.Schema
module R = Jedd_relation.Relation
module Recorder = Jedd_profiler.Recorder
module Report = Jedd_profiler.Report
module Driver = Jedd_lang.Driver

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let small_session () =
  let u = U.create () in
  let d = Dom.declare ~name:"D" ~size:8 () in
  let p1 = Phys.declare u ~name:"P1" ~bits:3 in
  let p2 = Phys.declare u ~name:"P2" ~bits:3 in
  let a = Attr.declare ~name:"a" ~domain:d in
  let b = Attr.declare ~name:"b" ~domain:d in
  let sch =
    Schema.make [ { Schema.attr = a; phys = p1 }; { Schema.attr = b; phys = p2 } ]
  in
  let rec_ = Recorder.create () in
  Recorder.attach rec_ u ~level:U.Shapes;
  let x = R.of_tuples u sch [ [ 1; 2 ]; [ 3; 4 ] ] in
  let y = R.of_tuples u sch [ [ 1; 2 ]; [ 5; 6 ] ] in
  let union = R.union ~label:"demo-union" x y in
  let _ = R.project_away ~label:"demo-project" union [ b ] in
  Recorder.detach u;
  rec_

let test_recorder_counts () =
  let rec_ = small_session () in
  Alcotest.(check bool) "recorded some operations" true
    (Recorder.total_operations rec_ >= 2);
  let summaries = Recorder.summaries rec_ in
  Alcotest.(check bool) "union summarised" true
    (List.exists
       (fun (s : Recorder.summary) -> s.op = "union" && s.executions = 1)
       summaries);
  Alcotest.(check bool) "tuples recorded" true
    (List.exists
       (fun (s : Recorder.summary) ->
         s.op = "union" && s.total_result_tuples = 3)
       summaries)

let test_recorder_shapes () =
  let rec_ = small_session () in
  Alcotest.(check bool) "shape captured" true
    (List.exists
       (fun (r : Recorder.row) -> r.event.U.shapes <> None)
       (Recorder.rows rec_))

let test_html_report () =
  let rec_ = small_session () in
  let html = Report.to_html rec_ in
  Alcotest.(check bool) "has overview header" true
    (contains html "Jedd profiler report");
  Alcotest.(check bool) "mentions union" true (contains html "union");
  Alcotest.(check bool) "has SVG shape chart" true (contains html "<svg");
  Alcotest.(check bool) "escapes labels" true
    (not (contains html "<demo"))

let test_csv_report () =
  let rec_ = small_session () in
  let csv = Report.to_csv rec_ in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check bool) "header plus one line per op" true
    (List.length lines = Recorder.total_operations rec_ + 1);
  Alcotest.(check bool) "header columns" true
    (contains (List.hd lines) "seq,op,label,millis")

let test_sql_report () =
  let rec_ = small_session () in
  let sql = Report.to_sql rec_ in
  Alcotest.(check bool) "creates table" true
    (contains sql "CREATE TABLE IF NOT EXISTS jedd_ops");
  Alcotest.(check bool) "inserts rows" true
    (contains sql "INSERT INTO jedd_ops VALUES (0,")

let test_clear () =
  let rec_ = small_session () in
  Recorder.clear rec_;
  Alcotest.(check int) "cleared" 0 (Recorder.total_operations rec_)

(* ---------------- generated Java (Figure 1) ---------------- *)

let fig4_like =
  "domain Type 8;\n\
   domain Signature 8;\n\
   attribute type : Type;\n\
   attribute tgttype : Type;\n\
   attribute signature : Signature;\n\
   physdom T1;\nphysdom T2;\nphysdom S1;\n\
   class Demo {\n\
   \  <type:T1, signature:S1> declares;\n\
   \  <tgttype:T2, signature:S1> wanted;\n\
   \  public void go( <tgttype, signature> input ) {\n\
   \    wanted = input;\n\
   \    <tgttype:T2, signature:S1, type:T1> found =\n\
   \      wanted{signature} >< declares{signature};\n\
   \    wanted -= (type=>) found;\n\
   \  }\n\
   }\n"

let test_emit_java_structure () =
  match Driver.compile [ ("Demo.jedd", fig4_like) ] with
  | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  | Ok c ->
    let java = Jedd_lang.Emit_java.emit_program c in
    Alcotest.(check bool) "class header" true
      (contains java "public class Demo");
    Alcotest.(check bool) "fields become containers" true
      (contains java "RelationContainer Demo_declares");
    Alcotest.(check bool) "layouts are spelled out" true
      (contains java "<type:T1, signature:S1>");
    Alcotest.(check bool) "join call emitted" true
      (contains java "Jedd.v().join(");
    Alcotest.(check bool) "projection emitted" true
      (contains java "Jedd.v().project(");
    Alcotest.(check bool) "method signature" true
      (contains java "public void go(final RelationContainer Demo_go_input)")

let test_emit_java_replace_sites () =
  (* A layout change across an assignment must show up as an explicit
     replace in the generated code. *)
  let src =
    "domain Type 8;\n\
     attribute type : Type;\n\
     physdom TA;\nphysdom TB;\n\
     class Rep {\n\
     \  <type:TA> a;\n\
     \  <type:TB> b;\n\
     \  public void go() {\n\
     \    b = a;\n\
     \  }\n\
     }\n"
  in
  match Driver.compile [ ("Rep.jedd", src) ] with
  | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  | Ok c ->
    let java = Jedd_lang.Emit_java.emit_method c "Rep.go" in
    Alcotest.(check bool) "replace emitted for TA->TB" true
      (contains java "Jedd.v().replace(")

(* ---------------- multi-file compilation ---------------- *)

let test_multi_file_compile () =
  let decls =
    "domain Type 8;\nattribute type : Type;\nphysdom TA;\n"
  in
  let file1 = "class A { <type:TA> fa; public void ma() { fa = fa | fa; } }\n" in
  let file2 = "class B { <type:TA> fb; public void mb() { fb = fa; } }\n" in
  match
    Driver.compile
      [ ("decls.jedd", decls); ("A.jedd", file1); ("B.jedd", file2) ]
  with
  | Ok c ->
    Alcotest.(check int) "two classes" 2
      (List.length c.Driver.tprog.Jedd_lang.Tast.classes)
  | Error e -> Alcotest.failf "multi-file: %s" (Driver.error_to_string e)

(* ---------------- Graphviz / shapes ---------------- *)

let test_dot_export () =
  let m = Jedd_bdd.Manager.create () in
  let v0 = Jedd_bdd.Manager.new_var m in
  let v1 = Jedd_bdd.Manager.new_var m in
  let f =
    Jedd_bdd.Ops.band m (Jedd_bdd.Manager.var m v0) (Jedd_bdd.Manager.var m v1)
  in
  let dot = Jedd_bdd.Dot.to_dot m f in
  Alcotest.(check bool) "digraph" true (contains dot "digraph bdd");
  Alcotest.(check bool) "has x0" true (contains dot "x0");
  Alcotest.(check bool) "terminal boxes" true (contains dot "shape=box")

let test_ascii_shape () =
  let m = Jedd_bdd.Manager.create () in
  let v0 = Jedd_bdd.Manager.new_var m in
  let _ = Jedd_bdd.Manager.new_var m in
  let f = Jedd_bdd.Manager.var m v0 in
  let out = Format.asprintf "%a" (fun ppf -> Jedd_bdd.Dot.print_ascii_shape ppf m) f in
  Alcotest.(check bool) "bar drawn" true (contains out "#")

let suite =
  [
    Alcotest.test_case "recorder counts" `Quick test_recorder_counts;
    Alcotest.test_case "recorder shapes" `Quick test_recorder_shapes;
    Alcotest.test_case "html report" `Quick test_html_report;
    Alcotest.test_case "csv report" `Quick test_csv_report;
    Alcotest.test_case "sql report" `Quick test_sql_report;
    Alcotest.test_case "recorder clear" `Quick test_clear;
    Alcotest.test_case "emit java structure" `Quick test_emit_java_structure;
    Alcotest.test_case "emit java replace sites" `Quick
      test_emit_java_replace_sites;
    Alcotest.test_case "multi-file compile" `Quick test_multi_file_compile;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Alcotest.test_case "ascii shape" `Quick test_ascii_shape;
  ]
