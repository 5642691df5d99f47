let () =
  Alcotest.run "jedd"
    [ ("bdd", Test_bdd.suite);
      ("sat", Test_sat.suite);
      ("relation", Test_relation.suite); ("jedd", Test_jedd.suite); ("analyses", Test_analyses.suite); ("tools", Test_tools.suite); ("ir", Test_ir.suite);
      ("mtbdd", Test_mtbdd.suite);
      ("lint", Test_lint.suite); ("cost", Test_cost.suite);
      ("store", Test_store.suite);
      ("server", Test_server.suite); ("json-fuzz", Test_json_fuzz.suite);
      ("serve", Test_serve.suite); ("incr", Test_incr.suite) ]
