(* jeddlint: golden-file diagnostic tests over seeded-defect programs,
   clean-run assertions over known-good sources, and both halves of the
   refcount-discipline checker (the static verifier and the
   JEDD_CHECK_IR runtime shadow) on a deliberately corrupted IR
   fixture and on the five analyses. *)

module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module Ir = Jedd_lang.Ir
module Lint = Jedd_lint.Driver
module Diag = Jedd_lint.Diag
module Refcount = Jedd_lint.Refcount
module Suite = Jedd_analyses.Suite
module Workload = Jedd_minijava.Workload

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let compile ~name src =
  match Driver.compile [ (name, src) ] with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

(* ---------------- golden snapshot over the seeded defects ---------------- *)

let defects () =
  compile ~name:"examples/lint_defects.jedd"
    (read_file "../examples/lint_defects.jedd")

let test_defects_golden_json () =
  let r = Lint.lint (defects ()) in
  let expected = String.trim (read_file "lint_defects.golden.json") in
  Alcotest.(check string) "--lint=json snapshot" expected (Lint.to_json r)

let test_defects_categories () =
  let r = Lint.lint (defects ()) in
  let codes = List.map (fun (d : Diag.t) -> d.Diag.code) r.Lint.diagnostics in
  List.iter
    (fun c ->
      Alcotest.(check bool) (c ^ " reported") true (List.mem c codes))
    [ "JL001"; "JL002"; "JL003"; "JL004"; "JL005"; "JL006"; "JL007"; "JL009" ];
  (* warnings but no errors: CI exit code 1 *)
  Alcotest.(check int) "exit code" 1 (Lint.exit_code r);
  (* the forced replace carries a non-empty SAT core *)
  let forced =
    List.filter
      (fun (e : Jedd_lint.Check_replace.audit_entry) ->
        match e.Jedd_lint.Check_replace.verdict with
        | Jedd_lint.Check_replace.V_forced core -> core <> []
        | Jedd_lint.Check_replace.V_chosen -> false)
      r.Lint.replace_audit
  in
  Alcotest.(check int) "one forced replace with a core" 1 (List.length forced)

(* ---------------- clean runs ---------------- *)

let test_clean_figure4 () =
  let r = Lint.lint (compile ~name:"fig4.jedd" Test_ir.figure4) in
  Alcotest.(check int) "exit code 0" 0 (Lint.exit_code r);
  Alcotest.(check int) "no refcount violations" 0 r.Lint.refcount_violations;
  Alcotest.(check bool) "methods verified" true (r.Lint.methods_verified >= 2)

let assert_suite_clean p tag =
  List.iter
    (fun (name, _) ->
      let r = Lint.lint (Suite.compile_one p name) in
      Alcotest.(check int) (tag ^ "/" ^ name ^ " exit code") 0 (Lint.exit_code r);
      Alcotest.(check int)
        (tag ^ "/" ^ name ^ " refcount violations")
        0 r.Lint.refcount_violations)
    Suite.analyses

let test_suite_clean_tiny () =
  assert_suite_clean (Workload.generate Workload.tiny) "tiny"

let test_suite_clean_shapes () =
  assert_suite_clean
    (Jedd_minijava.Frontend.load_file "../examples/shapes.mjava")
    "shapes"

(* ---------------- the corrupted IR fixture ---------------- *)

(* double-free, read of a never-written register, and an owned value
   leaked past method exit — all in four instructions *)
let corrupt_method : Ir.cmethod =
  {
    Ir.c_qualified = "Bad.m";
    c_params = [];
    c_nregs = 3;
    c_body =
      [
        Ir.CExec
          [
            Ir.IConst (0, false, [ ("a", "P1") ]);
            Ir.IFree 0;
            Ir.IFree 0;
            Ir.IConst (1, true, [ ("a", "P1") ]);
            Ir.IPrint 2;
          ];
      ];
  }

let test_static_verifier_rejects_corrupt_ir () =
  let errs = Refcount.verify_method corrupt_method in
  let all = String.concat "; " errs in
  Alcotest.(check bool) "violations found" true (errs <> []);
  Alcotest.(check bool) "double free detected" true (contains all "freed twice");
  Alcotest.(check bool)
    "read-before-write detected" true
    (contains all "read before being written");
  Alcotest.(check bool) "leak detected" true (contains all "leak")

(* instances created inside [f] shadow-check every instruction *)
let with_check_ir f =
  let prev = Option.value (Sys.getenv_opt "JEDD_CHECK_IR") ~default:"0" in
  Unix.putenv "JEDD_CHECK_IR" "1";
  Fun.protect ~finally:(fun () -> Unix.putenv "JEDD_CHECK_IR" prev) f

let test_dynamic_check_rejects_corrupt_ir () =
  let inst = with_check_ir (fun () -> Driver.instantiate (defects ())) in
  Interp.set_print_hook inst (fun _ -> ());
  Hashtbl.replace (Interp.methods inst) "Bad.m" corrupt_method;
  match Interp.call inst "Bad.m" [] with
  | _ -> Alcotest.fail "corrupted method executed without a Runtime_error"
  | exception Interp.Runtime_error msg ->
    Alcotest.(check bool) "names the violation" true (contains msg "freed twice");
    Alcotest.(check bool) "names the method" true (contains msg "Bad.m")

let test_dynamic_check_clean_run () =
  (* JEDD_CHECK_IR=1 shadows every executed instruction; a correct
     lowering must run to completion without tripping it *)
  let inst = with_check_ir (fun () -> Driver.instantiate (defects ())) in
  Interp.set_print_hook inst (fun _ -> ());
  (match Interp.call inst "Defects.run" [] with
  | Some _ -> Alcotest.fail "void method returned a value"
  | None -> ());
  Alcotest.(check pass) "checked run completed" () ()

let test_dynamic_check_analyses () =
  (* the five analyses shadow-checked end to end: combined in one
     universe, semi-naive and with the paper's naive loops, and one
     universe per analysis *)
  List.iter
    (fun p ->
      List.iter
        (fun run -> Test_analyses.check_results p (with_check_ir (fun () -> run p)))
        [
          (fun p -> snd (Suite.run_combined ~naive:false p));
          (fun p -> snd (Suite.run_combined ~naive:true p));
          (fun p -> Suite.run_all p);
        ])
    [
      Workload.generate Workload.tiny;
      Jedd_minijava.Frontend.load_file "../examples/shapes.mjava";
    ]

let suite =
  [
    Alcotest.test_case "defects golden json" `Quick test_defects_golden_json;
    Alcotest.test_case "defects categories + core" `Quick
      test_defects_categories;
    Alcotest.test_case "figure4 is lint-clean" `Quick test_clean_figure4;
    Alcotest.test_case "analysis suite is lint-clean (tiny)" `Quick
      test_suite_clean_tiny;
    Alcotest.test_case "analysis suite is lint-clean (shapes.mjava)" `Quick
      test_suite_clean_shapes;
    Alcotest.test_case "static verifier rejects corrupt IR" `Quick
      test_static_verifier_rejects_corrupt_ir;
    Alcotest.test_case "JEDD_CHECK_IR rejects corrupt IR" `Quick
      test_dynamic_check_rejects_corrupt_ir;
    Alcotest.test_case "JEDD_CHECK_IR passes a clean run" `Quick
      test_dynamic_check_clean_run;
    Alcotest.test_case "JEDD_CHECK_IR passes the five analyses" `Quick
      test_dynamic_check_analyses;
  ]
