(* Tests for the Jedd language: lexer, parser (Figure 5), type checker
   (Figure 6), physical-domain assignment (§3.3.2, Figure 7), error
   reporting (§3.3.3), and end-to-end execution of the paper's virtual
   call resolution example (Figure 4). *)

module L = Jedd_lang.Lexer
module P = Jedd_lang.Parser
module Ast = Jedd_lang.Ast
module TC = Jedd_lang.Typecheck
module C = Jedd_lang.Constraints
module E = Jedd_lang.Encode
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module R = Jedd_relation.Relation
module Schema = Jedd_relation.Schema

(* ---------------- lexer ---------------- *)

let toks src = List.map fst (L.tokenize ~file:"t.jedd" src)

let test_lexer_symbols () =
  Alcotest.(check bool) "join and compose symbols" true
    (toks "a >< b <> c" = [ L.IDENT "a"; L.JOIN_SYM; L.IDENT "b";
                            L.COMPOSE_SYM; L.IDENT "c"; L.EOF ]);
  Alcotest.(check bool) "constants" true
    (toks "0B 1B 42" = [ L.ZERO_B; L.ONE_B; L.INT 42; L.EOF ]);
  Alcotest.(check bool) "compound assignment" true
    (toks "x |= y &= z -= w" = [ L.IDENT "x"; L.PIPE_EQ; L.IDENT "y";
                                 L.AMP_EQ; L.IDENT "z"; L.MINUS_EQ;
                                 L.IDENT "w"; L.EOF ]);
  Alcotest.(check bool) "arrow vs comparison" true
    (toks "a => b == c != d" = [ L.IDENT "a"; L.ARROW; L.IDENT "b"; L.EQEQ;
                                 L.IDENT "c"; L.NEQ; L.IDENT "d"; L.EOF ])

let test_lexer_comments () =
  Alcotest.(check bool) "line and block comments" true
    (toks "a // comment\n /* block \n comment */ b" =
       [ L.IDENT "a"; L.IDENT "b"; L.EOF ])

let test_lexer_positions () =
  let all = L.tokenize ~file:"t.jedd" "ab\n  cd" in
  match all with
  | [ (_, p1); (_, p2); _ ] ->
    Alcotest.(check (pair int int)) "first" (1, 1) (p1.Ast.line, p1.Ast.col);
    Alcotest.(check (pair int int)) "second" (2, 3) (p2.Ast.line, p2.Ast.col)
  | _ -> Alcotest.fail "expected two tokens"

let test_lexer_error () =
  match toks "a $ b" with
  | exception L.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

(* ---------------- parser ---------------- *)

let test_parse_replace_forms () =
  (match (P.parse_expr_string "(a=>) x").Ast.desc with
  | Ast.Replace ([ Ast.Project_away "a" ], { desc = Ast.Var "x"; _ }) -> ()
  | _ -> Alcotest.fail "project form");
  (match (P.parse_expr_string "(a=>b) x").Ast.desc with
  | Ast.Replace ([ Ast.Rename_to ("a", "b") ], _) -> ()
  | _ -> Alcotest.fail "rename form");
  match (P.parse_expr_string "(a=>b c) x").Ast.desc with
  | Ast.Replace ([ Ast.Copy_to ("a", "b", "c") ], _) -> ()
  | _ -> Alcotest.fail "copy form"

let test_parse_join () =
  match (P.parse_expr_string "x{a, b} >< y{c, d}").Ast.desc with
  | Ast.JoinExpr (Ast.Join, { desc = Ast.Var "x"; _ }, [ "a"; "b" ],
                  { desc = Ast.Var "y"; _ }, [ "c"; "d" ]) -> ()
  | _ -> Alcotest.fail "join structure"

let test_parse_compose_in_parens () =
  (* the exact nesting used in line 10 of Figure 4 *)
  match (P.parse_expr_string "(supertype=>tgttype) (x {tgttype} <> y {subtype})").Ast.desc with
  | Ast.Replace ([ Ast.Rename_to ("supertype", "tgttype") ],
                 { desc = Ast.JoinExpr (Ast.Compose, _, [ "tgttype" ], _, [ "subtype" ]); _ })
    -> ()
  | _ -> Alcotest.fail "replace of parenthesised compose"

let test_parse_precedence () =
  (* '-' binds tighter than '&' binds tighter than '|' *)
  match (P.parse_expr_string "a | b & c - d").Ast.desc with
  | Ast.Binop (Ast.Union, { desc = Ast.Var "a"; _ },
               { desc = Ast.Binop (Ast.Inter, { desc = Ast.Var "b"; _ },
                                   { desc = Ast.Binop (Ast.Diff, _, _); _ }); _ })
    -> ()
  | _ -> Alcotest.fail "precedence"

let test_parse_literal () =
  match (P.parse_expr_string "new { t=>type, s=>signature:S1, 3=>method }").Ast.desc with
  | Ast.Literal
      [ (Ast.Obj_var "t", { attr_name = "type"; phys_name = None });
        (Ast.Obj_var "s", { attr_name = "signature"; phys_name = Some "S1" });
        (Ast.Obj_int 3, { attr_name = "method"; phys_name = None }) ] -> ()
  | _ -> Alcotest.fail "literal structure"

let test_parse_program_shapes () =
  let src =
    "domain Type 8;\n\
     attribute type : Type;\n\
     physdom T1;\n\
     physdom T2 5;\n\
     class C {\n\
     \  <type> f = 0B;\n\
     \  public void m( <type> x, Type t ) {\n\
     \    if (x != 0B) { f |= x; } else f = x;\n\
     \    do { f -= x; } while (f != 0B);\n\
     \    while (false) { print f; }\n\
     \    return;\n\
     \  }\n\
     }\n"
  in
  let prog = P.parse_program ~file:"t.jedd" src in
  Alcotest.(check int) "five declarations" 5 (List.length prog);
  match List.nth prog 4 with
  | Ast.Class_decl c ->
    Alcotest.(check int) "one field" 1 (List.length c.Ast.fields);
    Alcotest.(check int) "one method" 1 (List.length c.Ast.methods);
    let m = List.hd c.Ast.methods in
    Alcotest.(check int) "two params" 2 (List.length m.Ast.meth_params)
  | _ -> Alcotest.fail "expected class"

let test_parse_error_position () =
  match P.parse_program ~file:"t.jedd" "domain Type ;" with
  | exception P.Parse_error (_, p) ->
    Alcotest.(check int) "line" 1 p.Ast.line
  | _ -> Alcotest.fail "expected parse error"

(* ---------------- typechecking ---------------- *)

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
   physdom T1;\n\
   physdom T2;\n\
   physdom S1;\n\
   physdom M1;\n"

let check_ok body =
  let prog = P.parse_program ~file:"t.jedd" (preamble ^ body) in
  TC.check prog

let expect_type_error name body =
  let prog = P.parse_program ~file:"t.jedd" (preamble ^ body) in
  match TC.check prog with
  | exception TC.Error _ -> ()
  | _ -> Alcotest.failf "%s: expected type error" name

let test_typecheck_setop_schemas () =
  ignore
    (check_ok
       "class C { <type> a; <type> b; public void m() { a = a | b; } }");
  expect_type_error "union schema mismatch"
    "class C { <type> a; <signature> b; public void m() { a = a | b; } }"

let test_typecheck_project () =
  ignore
    (check_ok
       "class C { <type, signature> a; <type> b; public void m() { b = (signature=>) a; } }");
  expect_type_error "project absent attribute"
    "class C { <type> a; <type> b; public void m() { b = (signature=>) a; } }"

let test_typecheck_rename () =
  ignore
    (check_ok
       "class C { <subtype> a; <supertype> b; public void m() { b = (subtype=>supertype) a; } }");
  expect_type_error "rename target present"
    "class C { <subtype, supertype> a; public void m() { a = (subtype=>supertype) a; } }";
  expect_type_error "rename across domains"
    "class C { <type> a; <signature> b; public void m() { b = (type=>signature) a; } }"

let test_typecheck_copy () =
  ignore
    (check_ok
       "class C { <rectype> a; <rectype, tgttype> b; public void m() { b = (rectype=>rectype tgttype) a; } }");
  expect_type_error "copy targets must differ"
    "class C { <rectype> a; <rectype> b; public void m() { b = (rectype=>rectype rectype) a; } }"

let test_typecheck_join () =
  ignore
    (check_ok
       "class C { <rectype, signature> a; <type, method> b; <rectype, signature, method> c;\n\
        public void m() { c = a{rectype} >< b{type}; } }");
  expect_type_error "overlapping non-compared attributes"
    "class C { <rectype, signature> a; <type, signature> b; <rectype, signature> c;\n\
     public void m() { c = a{rectype} >< b{type}; } }";
  expect_type_error "compared attribute missing"
    "class C { <rectype> a; <type> b; <rectype> c;\n\
     public void m() { c = a{signature} >< b{type}; } }"

let test_typecheck_poly_restrictions () =
  ignore (check_ok "class C { <type> a; public void m() { a = 0B; } }");
  expect_type_error "0B in set operation"
    "class C { <type> a; public void m() { a = a | 0B; } }";
  expect_type_error "0B joined"
    "class C { <type> a; public void m() { a = 0B{type} >< a{type}; } }"

let test_typecheck_assignment_compat () =
  expect_type_error "assigning wrong schema"
    "class C { <type> a; <signature> b; public void m() { a = b; } }";
  expect_type_error "duplicate attribute in type"
    "class C { <type, type> a; public void m() { } }"

let test_typecheck_calls () =
  ignore
    (check_ok
       "class C { <type> f;\n\
        <type> get() { return f; }\n\
        public void put( <type> x ) { f = x; }\n\
        public void m() { put(get()); } }");
  expect_type_error "argument schema mismatch"
    "class C { <signature> f;\n\
     public void put( <type> x ) { }\n\
     public void m() { put(f); } }"

(* ---------------- physical-domain assignment ---------------- *)

(* The paper's Figure 4 module.  As §3.3.3 explains, the composition on
   line 10 makes [supertype] conflict with the domain of the attribute it
   is compared against unless it is pinned elsewhere — that is the
   paper's own worked error — so, exactly as the paper prescribes, the
   [extend] parameter pins [supertype] to a domain of its own (T3). *)
let figure4_program =
  preamble ^ "physdom T3;\n"
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

let test_assignment_solves_figure4 () =
  match Driver.compile [ ("Fig4.jedd", figure4_program) ] with
  | Error e -> Alcotest.failf "compile failed: %s" (Driver.error_to_string e)
  | Ok c ->
    let st = c.Driver.constraint_stats in
    Alcotest.(check bool) "has expressions" true (st.C.n_rel_exprs > 10);
    Alcotest.(check bool) "has conflicts" true (st.C.n_conflict > 0);
    Alcotest.(check bool) "has equalities" true (st.C.n_equality > 0);
    Alcotest.(check bool) "has assignments" true (st.C.n_assignment > 0);
    (* the four components of Figure 7 end up in the four specified
       domains: check the variable layouts *)
    let phys site attr = (c.Driver.assignment.E.phys_of site attr).Jedd_lang.Tast.p_name in
    let var v = Jedd_lang.Constraints.S_var v in
    Alcotest.(check string) "toResolve.rectype" "T1"
      (phys (var "Resolver.resolve.toResolve") "rectype");
    Alcotest.(check string) "toResolve.signature" "S1"
      (phys (var "Resolver.resolve.toResolve") "signature");
    Alcotest.(check string) "toResolve.tgttype" "T2"
      (phys (var "Resolver.resolve.toResolve") "tgttype");
    Alcotest.(check string) "declaresMethod.type" "T2"
      (phys (var "Resolver.declaresMethod") "type");
    Alcotest.(check string) "declaresMethod.signature" "S1"
      (phys (var "Resolver.declaresMethod") "signature");
    Alcotest.(check string) "declaresMethod.method" "M1"
      (phys (var "Resolver.declaresMethod") "method");
    Alcotest.(check string) "answer.rectype" "T1"
      (phys (var "Resolver.answer") "rectype")

let test_assignment_unreachable () =
  (* no physical domain specified anywhere: §3.3.3 failure mode 1 *)
  let src =
    preamble
    ^ "class C { <type> f; public void m() { f = f | f; } }\n"
  in
  match Driver.compile [ ("t.jedd", src) ] with
  | Error { phase = "assignment"; message; _ } ->
    Alcotest.(check bool) "mentions reachability" true
      (String.length message > 0
      && Str.string_match (Str.regexp ".*no specified physical domain.*") message 0)
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "expected unreachable-attribute error"

let test_assignment_conflict_paper_message () =
  (* The exact erroneous program of §3.3.3. *)
  let src =
    preamble
    ^ "class Bad {\n\
       \  <rectype:T1, signature:S1, tgttype:T2> toResolve;\n\
       \  <supertype:T1, subtype:T2> extend;\n\
       \  public void go() {\n\
       \    <rectype, signature, supertype> result = toResolve {tgttype} <> extend {subtype};\n\
       \  }\n\
       }\n"
  in
  match Driver.compile [ ("Test.jedd", src) ] with
  | Error { phase = "assignment"; message; _ } ->
    let contains needle =
      Str.string_match (Str.regexp (".*" ^ Str.quote needle ^ ".*")) message 0
    in
    Alcotest.(check bool) "is a conflict report" true (contains "Conflict between");
    Alcotest.(check bool) "names the attributes" true
      (contains "rectype" && contains "supertype");
    Alcotest.(check bool) "names the physical domain" true
      (contains "over physical domain T1")
  | Error e -> Alcotest.failf "wrong error: %s" (Driver.error_to_string e)
  | Ok _ -> Alcotest.fail "expected assignment conflict"

let test_assignment_conflict_fixed () =
  (* ... and the paper's fix: pin supertype to a new domain T3. *)
  let src =
    preamble ^ "physdom T3;\n"
    ^ "class Bad {\n\
       \  <rectype:T1, signature:S1, tgttype:T2> toResolve;\n\
       \  <supertype:T1, subtype:T2> extend;\n\
       \  public void go() {\n\
       \    <rectype, signature, supertype:T3> result = toResolve {tgttype} <> extend {subtype};\n\
       \  }\n\
       }\n"
  in
  (* supertype is pinned to T1 at the field but T3 at the result; the
     compose must insert a replace, which the flow paths allow *)
  match Driver.compile [ ("Test.jedd", src) ] with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "fix should compile: %s" (Driver.error_to_string e)

(* ---------------- the five-analysis unit's assignment ---------------- *)

let compile_ok name src =
  match Driver.compile [ (name, src) ] with
  | Ok c -> c
  | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)

let tiny_program = lazy Jedd_minijava.Workload.(generate tiny)

let combined_tiny () =
  compile_ok "combined.jedd"
    (Jedd_analyses.Suite.combined_source (Lazy.force tiny_program))

(* MD5 of every constraint node's physical domain, in node order. *)
let assignment_digest (c : Driver.compiled) =
  Array.to_list c.Driver.graph.C.nodes
  |> List.map (fun (n : C.node) ->
         (c.Driver.assignment.E.phys_of n.C.site n.C.attr.Jedd_lang.Tast.a_name)
           .Jedd_lang.Tast.p_name)
  |> String.concat "," |> Digest.string |> Digest.to_hex

let test_assignment_pinned () =
  (* Any model is a correct assignment, but the emitted code, the
     replace sites and the benchmark figures all follow this one, so a
     solver change that moves it must update these digests on purpose.
     The Virtual Call Resolution unit is the one whose search learns
     clauses (2 conflicts). *)
  Alcotest.(check string)
    "combined unit" "c93ec4f36146c2e01df15afe851cad0f"
    (assignment_digest (combined_tiny ()));
  Alcotest.(check string)
    "Virtual Call Resolution unit" "f99040fd87a23757b7bdaa1ff52c98ce"
    (assignment_digest
       (compile_ok "vcr.jedd"
          (Jedd_analyses.Suite.source_for (Lazy.force tiny_program)
             "Virtual Call Resolution")))

let test_assignment_retains_no_solver () =
  (* a compiled program lives as long as its Interp instance, Live
     session or server: its assignment must not keep the SAT instance
     (about 3.4M words on this unit) reachable *)
  let words =
    Obj.reachable_words (Obj.repr (combined_tiny ()).Driver.assignment)
  in
  if words >= 100_000 then
    Alcotest.failf "assignment reaches %d words (bound 100000)" words

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let jeddc args =
  Sys.command
    (String.concat " " (Fixture.path "../bin/jeddc_main.exe" :: args))

let test_jeddc_dimacs () =
  let module Dimacs = Jedd_sat.Dimacs in
  let cnf = Filename.temp_file "jeddc" ".cnf" in
  let out = Filename.temp_file "jeddc" ".out" in
  let err = Filename.temp_file "jeddc" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ cnf; out; err ])
    (fun () ->
      Alcotest.(check int) "exit status" 0
        (jeddc
           [ "--stats"; "--dimacs"; Filename.quote cnf;
             Fixture.path "../examples/lint_clean.jedd"; ">";
             Filename.quote out ]);
      let text = read_file cnf in
      let problem = Dimacs.of_string text in
      let header =
        List.find
          (fun l -> String.length l > 0 && l.[0] = 'p')
          (String.split_on_char '\n' text)
      in
      let hvars, hclauses = Scanf.sscanf header "p cnf %d %d" (fun v c -> (v, c)) in
      let stat label =
        let line =
          List.find
            (fun l -> Str.string_match (Str.regexp (" *" ^ label ^ " *:")) l 0)
            (String.split_on_char '\n' (read_file out))
        in
        int_of_string (String.trim (List.nth (String.split_on_char ':' line) 1))
      in
      let body_vars =
        List.fold_left
          (fun m c -> List.fold_left (fun m l -> max m (abs l)) m c)
          0 problem.Dimacs.clauses
      in
      Alcotest.(check int) "header clauses = body" hclauses
        (List.length problem.Dimacs.clauses);
      Alcotest.(check int) "header vars = body" hvars body_vars;
      Alcotest.(check int) "vars = --stats" (stat "SAT variables") hvars;
      Alcotest.(check int) "clauses = --stats" (stat "SAT clauses") hclauses;
      Alcotest.(check int) "literals = --stats" (stat "SAT literals")
        (List.fold_left (fun n c -> n + List.length c) 0 problem.Dimacs.clauses);
      let s = Jedd_sat.Solver.create () in
      ignore (Dimacs.load_into s problem);
      Alcotest.(check bool) "satisfiable" true
        (Jedd_sat.Solver.solve s = Jedd_sat.Solver.Sat);
      (* a path under a regular file cannot be created *)
      let bad = Filename.concat cnf "x.cnf" in
      Alcotest.(check int) "unwritable OUT exits 1" 1
        (jeddc
           [ "--dimacs"; Filename.quote bad;
             Fixture.path "../examples/lint_clean.jedd"; "> /dev/null 2>";
             Filename.quote err ]);
      let msg = read_file err in
      Alcotest.(check bool) ("message names the path: " ^ msg) true
        (Str.string_match (Str.regexp (".*" ^ Str.quote bad)) msg 0))

(* --domain-report=json on the seeded cost example: the forced copy in
   its fixed-point loop (JL201's site) carries the weight, loop depth
   and fixed-point flag that JL201's note prints. *)
let test_jeddc_domain_report () =
  let module Json = Jedd_server.Json in
  let out = Filename.temp_file "jeddc" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove out)
    (fun () ->
      Alcotest.(check int) "exit status" 0
        (jeddc
           [ "--domain-report=json";
             Fixture.path "../examples/cost_defects.jedd"; ">";
             Filename.quote out ]);
      let report = Json.of_string (read_file out) in
      Alcotest.(check bool) "no weighted key" true
        (Json.member "weighted" report = None);
      let int key site =
        match Json.member key site with
        | Some (Json.Int n) -> n
        | _ -> Alcotest.failf "site without %s: %s" key (Json.to_string site)
      in
      let sites =
        match Json.member "sites" report with
        | Some (Json.List l) -> l
        | _ -> Alcotest.fail "report without sites"
      in
      match
        List.find_opt (fun s -> int "line" s = 36 && int "col" s = 19) sites
      with
      | None -> Alcotest.fail "no site at 36,19"
      | Some site ->
        Alcotest.(check int) "weight" 32 (int "weight" site);
        Alcotest.(check int) "depth" 1 (int "depth" site);
        Alcotest.(check bool) "fixpoint" true
          (Json.member "fixpoint" site = Some (Json.Bool true)))

(* ---------------- end-to-end: Figure 4 execution ---------------- *)

let test_figure4_execution () =
  let c =
    match Driver.compile [ ("Fig4.jedd", figure4_program) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  let u = Interp.universe inst in
  (* objects: Type A=0 B=1; Signature foo=0 bar=1; Method A.foo=0 B.bar=1 *)
  let declares_schema = Interp.schema_of_var inst "Resolver.declaresMethod" in
  Interp.set_field inst "Resolver.declaresMethod"
    (R.of_tuples u declares_schema [ [ 0; 0; 0 ]; [ 1; 1; 1 ] ]);
  let recv_schema = Interp.schema_of_var inst "Resolver.resolve.receiverTypes" in
  let receiver_types = R.of_tuples u recv_schema [ [ 1; 0 ]; [ 1; 1 ] ] in
  let extend_schema = Interp.schema_of_var inst "Resolver.resolve.extend" in
  let extend = R.of_tuples u extend_schema [ [ 1; 0 ] ] in
  let result =
    Interp.call inst "Resolver.resolve"
      [ Interp.VRel receiver_types; Interp.VRel extend ]
  in
  Alcotest.(check bool) "void method" true (result = None);
  let answer = Interp.get_field inst "Resolver.answer" in
  (* Figure 4 (c)+(g): foo() resolves to A.foo(), bar() to B.bar() *)
  Alcotest.(check (list (list int)))
    "resolved virtual calls"
    [ [ 1; 0; 0; 0 ]; [ 1; 1; 1; 1 ] ]
    (R.tuples answer)

let test_method_call_and_return () =
  let src =
    preamble
    ^ "class C {\n\
       \  <type:T1> f;\n\
       \  <type> get() { return f; }\n\
       \  public void bump( Type t ) { f |= new { t=>type }; }\n\
       \  public void m( Type t ) { bump(t); f = get() | f; }\n\
       }\n"
  in
  let c =
    match Driver.compile [ ("t.jedd", src) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  ignore (Interp.call inst "C.m" [ Interp.VObj 3 ]);
  ignore (Interp.call inst "C.m" [ Interp.VObj 5 ]);
  Alcotest.(check (list (list int)))
    "objects accumulated"
    [ [ 3 ]; [ 5 ] ]
    (R.tuples (Interp.get_field inst "C.f"))

let test_field_initialiser () =
  let src =
    preamble
    ^ "class C { <type:T1> f = new { 2=>type } | new { 4=>type }; }\n"
  in
  let c =
    match Driver.compile [ ("t.jedd", src) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  Alcotest.(check (list (list int)))
    "initialised" [ [ 2 ]; [ 4 ] ]
    (R.tuples (Interp.get_field inst "C.f"))

let test_while_and_if () =
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
       \    if (acc == 0B) { acc = seed; }\n\
       \  }\n\
       }\n"
  in
  let c =
    match Driver.compile [ ("t.jedd", src) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  let u = Interp.universe inst in
  let seed_schema = Interp.schema_of_var inst "C.m.seed" in
  let succ_schema = Interp.schema_of_var inst "C.m.succ" in
  let seed = R.of_tuples u seed_schema [ [ 0 ] ] in
  (* chain 0 -> 1 -> 2 -> 3 *)
  let succ = R.of_tuples u succ_schema [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  ignore (Interp.call inst "C.m" [ Interp.VRel seed; Interp.VRel succ ]);
  Alcotest.(check (list (list int)))
    "transitive closure" [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (R.tuples (Interp.get_field inst "C.acc"))

(* ---------------- §4.2 memory management ---------------- *)

let test_liveness_kills () =
  (* [a]'s last use is the first |=; the liveness pass must release it
     before the heavy tail of the method.  We probe live handle counts
     from the print hook. *)
  let src =
    preamble
    ^ "class Mem {\n\
       \  <type:T1> acc;\n\
       \  public void m( <type> x ) {\n\
       \    <type> a = x;\n\
       \    acc |= a;\n\
       \    print acc;\n\
       \    acc |= acc;\n\
       \  }\n\
       }\n"
  in
  let c =
    match Driver.compile [ ("t.jedd", src) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  let u = Interp.universe inst in
  let live_at_probe = ref (-1) in
  Interp.set_print_hook inst (fun _ ->
      live_at_probe := Jedd_relation.Relation.live_root_count u);
  let x =
    R.of_tuples u (Interp.schema_of_var inst "Mem.m.x") [ [ 1 ]; [ 2 ] ]
  in
  let base = Jedd_relation.Relation.live_root_count u in
  ignore (Interp.call inst "Mem.m" [ Interp.VRel x ]);
  (* At the probe, live handles: the field acc, x's caller handle, the
     parameter handle... everything except [a], which died at the |=.
     Without liveness the count would be at least one higher.  We check
     the conservative property: the probe count is strictly below the
     peak implied by keeping all three method-local handles alive. *)
  Alcotest.(check bool) "probe saw a released local" true
    (!live_at_probe >= 0 && !live_at_probe <= base + 2)

let test_liveness_loop_safety () =
  (* a variable used by the *next* iteration must not be killed *)
  let src =
    preamble
    ^ "class Loop {\n\
       \  <type:T1> acc;\n\
       \  public void m( <type> seed ) {\n\
       \    <type> cur = seed;\n\
       \    <type> i = seed;\n\
       \    do {\n\
       \      acc |= cur;\n\
       \      cur = cur & acc;\n\
       \      i = i - acc;\n\
       \    } while (i != 0B);\n\
       \  }\n\
       }\n"
  in
  let c =
    match Driver.compile [ ("t.jedd", src) ] with
    | Ok c -> c
    | Error e -> Alcotest.failf "compile: %s" (Driver.error_to_string e)
  in
  let inst = Driver.instantiate c in
  let u = Interp.universe inst in
  let seed =
    R.of_tuples u (Interp.schema_of_var inst "Loop.m.seed") [ [ 1 ]; [ 3 ] ]
  in
  ignore (Interp.call inst "Loop.m" [ Interp.VRel seed ]);
  Alcotest.(check (list (list int)))
    "loop ran correctly with liveness enabled"
    [ [ 1 ]; [ 3 ] ]
    (R.tuples (Interp.get_field inst "Loop.acc"))

let test_liveness_analysis_direct () =
  let src =
    preamble
    ^ "class L {\n\
       \  <type:T1> f;\n\
       \  public void m( <type> x, <type> y ) {\n\
       \    f = x;\n\
       \    f = f | y;\n\
       \  }\n\
       }\n"
  in
  let prog = P.parse_program ~file:"t.jedd" src in
  let tprog = TC.check prog in
  let m = Hashtbl.find tprog.Jedd_lang.Tast.methods "L.m" in
  let lv = Jedd_lang.Liveness.analyze m in
  (* x dies at the first assignment, y at the second *)
  Alcotest.(check bool) "found kill sites" true
    (Jedd_lang.Liveness.total_kill_sites lv >= 2);
  match m.Jedd_lang.Tast.tm_body with
  | [ s1; s2 ] ->
    Alcotest.(check (list string)) "x dies first" [ "L.m.x" ]
      (Jedd_lang.Liveness.kills_after lv s1);
    Alcotest.(check (list string)) "y dies second" [ "L.m.y" ]
      (Jedd_lang.Liveness.kills_after lv s2)
  | _ -> Alcotest.fail "expected two statements"

let suite =
  [
    Alcotest.test_case "lexer symbols" `Quick test_lexer_symbols;
    Alcotest.test_case "lexer comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer positions" `Quick test_lexer_positions;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "parse replace forms" `Quick test_parse_replace_forms;
    Alcotest.test_case "parse join" `Quick test_parse_join;
    Alcotest.test_case "parse compose in parens" `Quick
      test_parse_compose_in_parens;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse literal" `Quick test_parse_literal;
    Alcotest.test_case "parse program shapes" `Quick test_parse_program_shapes;
    Alcotest.test_case "parse error position" `Quick test_parse_error_position;
    Alcotest.test_case "typecheck set ops" `Quick test_typecheck_setop_schemas;
    Alcotest.test_case "typecheck project" `Quick test_typecheck_project;
    Alcotest.test_case "typecheck rename" `Quick test_typecheck_rename;
    Alcotest.test_case "typecheck copy" `Quick test_typecheck_copy;
    Alcotest.test_case "typecheck join" `Quick test_typecheck_join;
    Alcotest.test_case "typecheck 0B/1B restrictions" `Quick
      test_typecheck_poly_restrictions;
    Alcotest.test_case "typecheck assignment" `Quick
      test_typecheck_assignment_compat;
    Alcotest.test_case "typecheck calls" `Quick test_typecheck_calls;
    Alcotest.test_case "assignment solves Figure 4" `Quick
      test_assignment_solves_figure4;
    Alcotest.test_case "assignment unreachable error" `Quick
      test_assignment_unreachable;
    Alcotest.test_case "assignment conflict: paper's message" `Quick
      test_assignment_conflict_paper_message;
    Alcotest.test_case "assignment conflict: paper's fix" `Quick
      test_assignment_conflict_fixed;
    Alcotest.test_case "Figure 4 end-to-end" `Quick test_figure4_execution;
    Alcotest.test_case "method call and return" `Quick
      test_method_call_and_return;
    Alcotest.test_case "field initialiser" `Quick test_field_initialiser;
    Alcotest.test_case "while and if" `Quick test_while_and_if;
    Alcotest.test_case "liveness kills early" `Quick test_liveness_kills;
    Alcotest.test_case "liveness loop safety" `Quick test_liveness_loop_safety;
    Alcotest.test_case "liveness analysis direct" `Quick
      test_liveness_analysis_direct;
    Alcotest.test_case "assignment pinned" `Quick test_assignment_pinned;
    Alcotest.test_case "assignment retains no solver" `Quick
      test_assignment_retains_no_solver;
    Alcotest.test_case "jeddc --dimacs" `Quick test_jeddc_dimacs;
    Alcotest.test_case "jeddc --domain-report" `Quick test_jeddc_domain_report;
  ]
