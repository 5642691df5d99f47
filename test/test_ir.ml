(* Tests for the lowered IR (§3.2 code generation): lowering structure,
   and execution by [Interp]'s register machine checked against
   hand-computed tuples. *)

module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module Ir = Jedd_lang.Ir
module Lower = Jedd_lang.Lower
module R = Jedd_relation.Relation

let preamble =
  "domain Type 8;\n\
   domain Signature 8;\n\
   domain Method 8;\n\
   attribute type : Type;\n\
   attribute rectype : Type;\n\
   attribute tgttype : Type;\n\
   attribute subtype : Type;\n\
   attribute supertype : Type;\n\
   attribute signature : Signature;\n\
   attribute method : Method;\n\
   physdom T1;\nphysdom T2;\nphysdom T3;\nphysdom S1;\nphysdom M1;\n"

let compile src =
  match Driver.compile [ ("t.jedd", src) ] with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)

let figure4 =
  preamble
  ^ "class Resolver {\n\
     \  <type, signature, method> declaresMethod;\n\
     \  <rectype, signature, tgttype, method> answer = 0B;\n\
     \  public void resolve( <rectype, signature> receiverTypes, <subtype, supertype:T3> extend ) {\n\
     \    <rectype, signature, tgttype> toResolve = (rectype => rectype tgttype) receiverTypes;\n\
     \    do {\n\
     \      <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =\n\
     \        toResolve{tgttype, signature} >< declaresMethod{type, signature};\n\
     \      answer |= resolved;\n\
     \      toResolve -= (method=>) resolved;\n\
     \      toResolve = (supertype=>tgttype) (toResolve{tgttype} <> extend{subtype});\n\
     \    } while( toResolve != 0B );\n\
     \  }\n\
     }\n"

(* run a scenario on a fresh instance of [src]; return a field's tuples *)
let run_scenario src ~field ~scenario =
  let inst = Driver.instantiate (compile src) in
  scenario inst (fun q args -> ignore (Interp.call inst q args));
  R.tuples (Interp.get_field inst field)

(* Figure 4's resolver on the given facts; returns the answer tuples
   (rectype, signature, tgttype, method) *)
let resolve_figure4 ~declares ~receivers ~extend =
  run_scenario figure4 ~field:"Resolver.answer" ~scenario:(fun inst call ->
      let u = Interp.universe inst in
      let rel key tuples = R.of_tuples u (Interp.schema_of_var inst key) tuples in
      let d = rel "Resolver.declaresMethod" declares in
      Interp.set_field inst "Resolver.declaresMethod" d;
      R.release d;
      call "Resolver.resolve"
        [
          Interp.VRel (rel "Resolver.resolve.receiverTypes" receivers);
          Interp.VRel (rel "Resolver.resolve.extend" extend);
        ])

let test_lowering_structure () =
  let c = compile figure4 in
  let m = Lower.lower_method c "Resolver.resolve" in
  Alcotest.(check bool) "allocated registers" true (m.Ir.c_nregs > 5);
  Alcotest.(check bool) "body nonempty" true (Ir.method_size m > 10);
  let text = Format.asprintf "%a" Ir.pp_method m in
  Alcotest.(check bool) "has a join" true
    (Str.string_match (Str.regexp ".*><.*") (String.map (fun c -> if c = '\n' then ' ' else c) text) 0);
  Alcotest.(check bool) "has frees" true
    (Str.string_match (Str.regexp ".*free r.*") (String.map (fun c -> if c = '\n' then ' ' else c) text) 0)

let test_replace_sites_lowered () =
  (* a field-to-field assignment across layouts must lower to IReplace *)
  let src =
    "domain Type 8;\nattribute type : Type;\nphysdom TA;\nphysdom TB;\n\
     class Rep { <type:TA> a; <type:TB> b; public void go() { b = a; } }\n"
  in
  let c = compile src in
  let m = Lower.lower_method c "Rep.go" in
  let has_replace = ref false in
  let rec scan (s : Ir.cstmt) =
    match s with
    | Ir.CExec is ->
      List.iter (function Ir.IReplace _ -> has_replace := true | _ -> ()) is
    | Ir.CBlock b -> List.iter scan b
    | Ir.CIf (_, th, el) ->
      List.iter scan th;
      List.iter scan el
    | Ir.CWhile (_, b) | Ir.CDoWhile (b, _) -> List.iter scan b
    | Ir.CReturn (is, _) ->
      List.iter (function Ir.IReplace _ -> has_replace := true | _ -> ()) is
  in
  List.iter scan m.Ir.c_body;
  Alcotest.(check bool) "IReplace present" true !has_replace

let test_figure4_differential () =
  (* a three-level hierarchy 2 <: 1 <: 0: the do-while climbs it once
     per iteration until every (receiver, signature) pair resolves *)
  Alcotest.(check (list (list int)))
    "resolution walks up to the declaring supertype"
    [ [ 1; 0; 0; 0 ]; [ 2; 0; 0; 0 ]; [ 2; 1; 1; 2 ]; [ 2; 2; 2; 3 ] ]
    (resolve_figure4
       ~declares:[ [ 0; 0; 0 ]; [ 0; 1; 1 ]; [ 1; 1; 2 ]; [ 2; 2; 3 ] ]
       ~receivers:[ [ 2; 0 ]; [ 2; 1 ]; [ 2; 2 ]; [ 1; 0 ] ]
       ~extend:[ [ 1; 0 ]; [ 2; 1 ] ])

let test_figure4_ir_result_correct () =
  Alcotest.(check (list (list int)))
    "IR engine resolves the calls"
    [ [ 1; 0; 0; 0 ]; [ 1; 1; 1; 1 ] ]
    (resolve_figure4 ~declares:[ [ 0; 0; 0 ]; [ 1; 1; 1 ] ]
       ~receivers:[ [ 1; 0 ]; [ 1; 1 ] ]
       ~extend:[ [ 1; 0 ] ])

let test_calls_differential () =
  let src =
    preamble
    ^ "class C {\n\
       \  <type:T1> f;\n\
       \  <type> get() { return f; }\n\
       \  public void bump( Type t ) { f |= new { t=>type }; }\n\
       \  public void m( Type t ) { bump(t); f = get() | f; }\n\
       }\n"
  in
  Alcotest.(check (list (list int)))
    "each call adds its object" [ [ 3 ]; [ 6 ] ]
    (run_scenario src ~field:"C.f" ~scenario:(fun _inst call ->
         call "C.m" [ Interp.VObj 3 ];
         call "C.m" [ Interp.VObj 6 ]))

let test_control_flow_differential () =
  let src =
    preamble
    ^ "class C {\n\
       \  <type:T1> acc;\n\
       \  public void m( <type> seed, <subtype, supertype:T2> succ ) {\n\
       \    <type> frontier = seed;\n\
       \    while (frontier != 0B) {\n\
       \      acc |= frontier;\n\
       \      frontier = (supertype=>type) (frontier{type} <> succ{subtype});\n\
       \      frontier -= acc;\n\
       \    }\n\
       \    if (acc == 0B) { acc = seed; } else { acc = acc | acc; }\n\
       \  }\n\
       }\n"
  in
  (* the while loop collects everything reachable from 0 along succ;
     5 -> 6 is unreachable *)
  Alcotest.(check (list (list int)))
    "reachable set" [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (run_scenario src ~field:"C.acc" ~scenario:(fun inst call ->
         let u = Interp.universe inst in
         let seed =
           R.of_tuples u (Interp.schema_of_var inst "C.m.seed") [ [ 0 ] ]
         in
         let succ =
           R.of_tuples u
             (Interp.schema_of_var inst "C.m.succ")
             [ [ 0; 1 ]; [ 1; 2 ]; [ 5; 6 ] ]
         in
         call "C.m" [ Interp.VRel seed; Interp.VRel succ ]))

let contains hay needle =
  match Str.search_forward (Str.regexp_string needle) hay 0 with
  | _ -> true
  | exception Not_found -> false

let test_call_errors () =
  (* every engine failure is a Runtime_error that names the method *)
  let inst = Driver.instantiate (compile figure4) in
  let expect what q args =
    match Interp.call inst q args with
    | _ -> Alcotest.failf "%s: call returned" what
    | exception Interp.Runtime_error msg ->
      if not (contains msg q) then Alcotest.failf "%s: %S does not name %s" what msg q
  in
  expect "arity" "Resolver.resolve" [];
  expect "argument kind" "Resolver.resolve" [ Interp.VObj 1; Interp.VObj 2 ];
  expect "unknown method" "Resolver.nosuch" []

let test_every_op_labelled () =
  (* each relational operation a Jedd method issues carries the source
     position of the expression it computes, compound assignments'
     unions included *)
  let module Recorder = Jedd_profiler.Recorder in
  let p = Jedd_minijava.Workload.generate Jedd_minijava.Workload.tiny in
  let inst =
    Driver.instantiate
      (compile (Jedd_analyses.Suite.source_for p "Points-to Analysis"))
  in
  Jedd_analyses.Pointsto.load_facts inst p;
  let u = Interp.universe inst in
  let rec_ = Recorder.create () in
  Recorder.attach rec_ u ~level:Jedd_relation.Universe.Counts;
  ignore (Interp.call inst "PointsTo.runNaive" []);
  Recorder.detach u;
  let events = List.map (fun (r : Recorder.row) -> r.event) (Recorder.rows rec_) in
  let position = Str.regexp {|t\.jedd:[0-9]+,[0-9]+$|} in
  List.iter
    (fun (e : Jedd_relation.Universe.op_event) ->
      if not (Str.string_match position e.label 0) then
        Alcotest.failf "%s labelled %S" e.op e.label)
    events;
  Alcotest.(check bool) "|= unions recorded" true
    (List.exists (fun (e : Jedd_relation.Universe.op_event) -> e.op = "union") events);
  (* the profiler CSV feeds the shape estimator through those labels;
     points-to's joins are all compositions *)
  let join =
    List.find (fun (e : Jedd_relation.Universe.op_event) -> e.op = "compose") events
  in
  let csv = Filename.temp_file "jedd-labels" ".csv" in
  Out_channel.with_open_bin csv (fun oc ->
      output_string oc (Jedd_profiler.Report.to_csv rec_));
  let hints = Jedd_cost.Shape.hints_of_csv csv in
  Sys.remove csv;
  Alcotest.(check (option int)) "a join's label resolves"
    (Some
       (List.fold_left
          (fun m (e : Jedd_relation.Universe.op_event) ->
            if e.label = join.label then max m e.result_nodes else m)
          0 events))
    (hints join.label)

let test_pointsto_via_ir () =
  (* the Points-to analysis's naive Jedd loop must match the reference
     implementation *)
  let p = Jedd_minijava.Workload.generate Jedd_minijava.Workload.tiny in
  let src = Jedd_analyses.Suite.source_for p "Points-to Analysis" in
  let c = compile src in
  let inst = Driver.instantiate c in
  Jedd_analyses.Pointsto.load_facts inst p;
  ignore (Interp.call inst "PointsTo.runNaive" []);
  let got = R.tuples (Interp.get_field inst "PointsTo.pt") in
  let ref_pt, _ = Jedd_minijava.Reference.points_to p in
  Alcotest.(check (list (list int)))
    "IR-run points-to matches reference"
    (Jedd_minijava.Reference.IPS.elements ref_pt
    |> List.map (fun (a, b) -> [ a; b ]))
    got

let test_no_leaks_via_ir () =
  (* after a full IR run, live handles = the instance's fields only *)
  let src =
    preamble
    ^ "class C {\n\
       \  <type:T1> f;\n\
       \  public void m( <type> x ) {\n\
       \    <type> a = x | x;\n\
       \    <type> b = a & x;\n\
       \    f = (a | b) - (a & b);\n\
       \    do { f = f | f; } while (false);\n\
       \  }\n\
       }\n"
  in
  let c = compile src in
  let inst = Driver.instantiate c in
  let u = Interp.universe inst in
  let before = Jedd_relation.Relation.live_root_count u in
  let x = R.of_tuples u (Interp.schema_of_var inst "C.m.x") [ [ 1 ]; [ 4 ] ] in
  ignore (Interp.call inst "C.m" [ Interp.VRel x ]);
  (* x's handle was transferred to the callee and released there *)
  Alcotest.(check int) "no leaked handles" before
    (Jedd_relation.Relation.live_root_count u)

let suite =
  [
    Alcotest.test_case "lowering structure" `Quick test_lowering_structure;
    Alcotest.test_case "replace sites lowered" `Quick
      test_replace_sites_lowered;
    Alcotest.test_case "Figure 4 differential" `Quick
      test_figure4_differential;
    Alcotest.test_case "Figure 4 via IR is correct" `Quick
      test_figure4_ir_result_correct;
    Alcotest.test_case "calls differential" `Quick test_calls_differential;
    Alcotest.test_case "control flow differential" `Quick
      test_control_flow_differential;
    Alcotest.test_case "points-to via IR" `Quick test_pointsto_via_ir;
    Alcotest.test_case "no leaks via IR" `Quick test_no_leaks_via_ir;
    Alcotest.test_case "call errors name the method" `Quick test_call_errors;
    Alcotest.test_case "every op labelled" `Quick test_every_op_labelled;
  ]
