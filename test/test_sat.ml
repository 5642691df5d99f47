(* Tests for the CDCL solver: hand-picked instances, random 3-SAT vs a
   brute-force reference, model validity, unsat-core soundness, pigeonhole,
   and DIMACS round-trips. *)

module Solver = Jedd_sat.Solver
module Dimacs = Jedd_sat.Dimacs

let fresh_solver_with clauses =
  let s = Solver.create () in
  let ids = List.map (Solver.add_clause s) clauses in
  (s, ids)

let brute_force_sat nvars clauses =
  let satisfies assignment clause =
    List.exists
      (fun lit ->
        let v = abs lit - 1 in
        if lit > 0 then assignment.(v) else not assignment.(v))
      clause
  in
  let rec try_all code =
    if code >= 1 lsl nvars then false
    else
      let assignment = Array.init nvars (fun i -> (code lsr i) land 1 = 1) in
      List.for_all (satisfies assignment) clauses || try_all (code + 1)
  in
  if clauses = [] then true else try_all 0

let model_satisfies s clauses =
  List.for_all
    (fun clause ->
      List.exists
        (fun lit ->
          let v = abs lit in
          if lit > 0 then Solver.value s v else not (Solver.value s v))
        clause)
    clauses

(* ------------------------------------------------------------------ *)

let test_trivial_sat () =
  let s, _ = fresh_solver_with [ [ 1 ]; [ -2 ]; [ 1; 2; 3 ] ] in
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x1 true" true (Solver.value s 1);
  Alcotest.(check bool) "x2 false" false (Solver.value s 2)

let test_trivial_unsat () =
  let s, _ = fresh_solver_with [ [ 1 ]; [ -1 ] ] in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check (list int)) "core is both units" [ 0; 1 ] (Solver.unsat_core s)

let test_empty_clause () =
  let s, _ = fresh_solver_with [ [ 1; 2 ] ] in
  let _ = Solver.add_clause s [] in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check (list int)) "core is empty clause" [ 1 ] (Solver.unsat_core s)

let test_implication_chain () =
  (* x1, x1->x2, x2->x3, ..., x9->x10, !x10 : unsat via a chain *)
  let n = 10 in
  let clauses =
    [ [ 1 ] ]
    @ List.init (n - 1) (fun i -> [ -(i + 1); i + 2 ])
    @ [ [ -n ] ]
  in
  let s, _ = fresh_solver_with clauses in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let core = Solver.unsat_core s in
  (* the whole chain is needed *)
  Alcotest.(check int) "core covers the chain" (n + 1) (List.length core)

let test_tautology_ignored () =
  let s, _ = fresh_solver_with [ [ 1; -1 ]; [ 2 ] ] in
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x2 true" true (Solver.value s 2)

let test_duplicate_literals () =
  let s, _ = fresh_solver_with [ [ 1; 1; 1 ]; [ -1; 2; 2 ] ] in
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x1" true (Solver.value s 1);
  Alcotest.(check bool) "x2" true (Solver.value s 2);
  (* a long clause with every literal twice: -3..-12, with 3..11
     asserted, leaves -12 *)
  let long = List.init 20 (fun i -> -(3 + (i mod 10))) in
  let units = List.init 9 (fun i -> [ 3 + i ]) in
  let s, _ = fresh_solver_with (long :: units) in
  Alcotest.(check bool) "long clause sat" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "x12 forced false" false (Solver.value s 12);
  let s, _ = fresh_solver_with ((long :: units) @ [ [ 12 ] ]) in
  Alcotest.(check bool) "long clause unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check (list int)) "core is every clause" (List.init 11 Fun.id)
    (Solver.unsat_core s)

let pigeonhole holes =
  (* PHP(holes+1, holes): unsat, classically hard for resolution at
     scale, easy at this size; exercises learning heavily. *)
  let pigeons = holes + 1 in
  let var p h = (p * holes) + h + 1 in
  let at_least =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
  in
  let at_most =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init pigeons (fun i -> i)))
          (List.init pigeons (fun i -> i)))
      (List.init holes (fun i -> i))
  in
  at_least @ at_most

let test_pigeonhole () =
  let clauses = pigeonhole 5 in
  let s, _ = fresh_solver_with clauses in
  Alcotest.(check bool) "php(6,5) unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "produced conflicts" true (Solver.conflicts s > 0)

let test_graph_coloring_sat () =
  (* 3-colour a 5-cycle (possible). var (v,c) = v*3+c+1 *)
  let var v c = (v * 3) + c + 1 in
  let vertices = List.init 5 (fun i -> i) in
  let one_color = List.map (fun v -> List.map (fun c -> var v c) [ 0; 1; 2 ]) vertices in
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let no_same =
    List.concat_map
      (fun (a, b) -> List.map (fun c -> [ -var a c; -var b c ]) [ 0; 1; 2 ])
      edges
  in
  let s, _ = fresh_solver_with (one_color @ no_same) in
  Alcotest.(check bool) "5-cycle 3-colourable" true (Solver.solve s = Solver.Sat);
  Alcotest.(check bool) "model is a colouring" true
    (model_satisfies s (one_color @ no_same))

let test_odd_cycle_2coloring_unsat () =
  let var v c = (v * 2) + c + 1 in
  let vertices = List.init 5 (fun i -> i) in
  let one_color = List.map (fun v -> [ var v 0; var v 1 ]) vertices in
  let edges = [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0) ] in
  let no_same =
    List.concat_map
      (fun (a, b) -> List.map (fun c -> [ -var a c; -var b c ]) [ 0; 1 ])
      edges
  in
  let clauses = one_color @ no_same in
  let s, _ = fresh_solver_with clauses in
  Alcotest.(check bool) "odd cycle not 2-colourable" true
    (Solver.solve s = Solver.Unsat);
  (* core soundness: the core alone must be unsat *)
  let core = Solver.unsat_core s in
  let all = Array.of_list clauses in
  let core_clauses = List.map (fun id -> all.(id)) core in
  let s2, _ = fresh_solver_with core_clauses in
  Alcotest.(check bool) "core itself unsat" true (Solver.solve s2 = Solver.Unsat)

let test_minimize_core () =
  (* unsat pair buried among irrelevant clauses *)
  let clauses = [ [ 3; 4 ]; [ 1 ]; [ 5; -6 ]; [ -1 ]; [ 2; 6 ] ] in
  let all = Array.of_list clauses in
  let s, _ = fresh_solver_with clauses in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let rebuild ids =
    let s = Solver.create () in
    let arr = Array.of_list ids in
    let local_ids = List.map (fun id -> Solver.add_clause s all.(id)) ids in
    ignore local_ids;
    (s, fun local -> arr.(local))
  in
  let core = Solver.minimize_core ~rebuild (Solver.unsat_core s) in
  Alcotest.(check (list int)) "minimal core is the two units" [ 1; 3 ] core

let test_dimacs_roundtrip () =
  let p = { Dimacs.nvars = 4; clauses = [ [ 1; -2 ]; [ 3; 4; -1 ]; [ -4 ] ] } in
  let text = Dimacs.to_string p in
  let p' = Dimacs.of_string text in
  Alcotest.(check int) "nvars" p.Dimacs.nvars p'.Dimacs.nvars;
  Alcotest.(check (list (list int))) "clauses" p.Dimacs.clauses p'.Dimacs.clauses

let test_dimacs_load () =
  let p = Dimacs.of_string "c comment\np cnf 2 2\n1 2 0\n-1 -2 0\n" in
  let s = Solver.create () in
  let ids = Dimacs.load_into s p in
  Alcotest.(check (list int)) "ids" [ 0; 1 ] ids;
  Alcotest.(check bool) "sat" true (Solver.solve s = Solver.Sat)

(* ---------------- proof checking (reference [30]) ------------------ *)

module Checker = Jedd_sat.Checker

let test_proof_validates () =
  let clauses = [ [ 1; 2 ]; [ -1; 2 ]; [ 1; -2 ]; [ -1; -2 ] ] in
  let s, _ = fresh_solver_with clauses in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  let proof = Solver.proof s in
  Alcotest.(check bool) "proof ends with empty clause" true
    (List.exists (( = ) []) proof);
  Alcotest.(check bool) "RUP check passes" true
    (Checker.check_rup ~nvars:(Solver.num_vars s) clauses proof)

let test_proof_rejects_bogus () =
  let clauses = [ [ 1; 2 ]; [ -1; 2 ] ] in
  (* claiming [-2] is derivable would be wrong; claiming [] outright is
     wrong too *)
  Alcotest.(check bool) "bogus step rejected" false
    (Checker.check_rup ~nvars:2 clauses [ [ -2 ]; [] ]);
  Alcotest.(check bool) "bogus empty clause rejected" false
    (Checker.check_rup ~nvars:2 clauses [ [] ])

let test_proof_pigeonhole () =
  let clauses = pigeonhole 4 in
  let s, _ = fresh_solver_with clauses in
  Alcotest.(check bool) "unsat" true (Solver.solve s = Solver.Unsat);
  Alcotest.(check bool) "php proof validates" true
    (Checker.check_rup ~nvars:(Solver.num_vars s) clauses (Solver.proof s))

let test_check_core_direct () =
  Alcotest.(check bool) "unsat pair" true
    (Checker.check_core ~nvars:1 [ [ 1 ]; [ -1 ] ]);
  Alcotest.(check bool) "satisfiable set" false
    (Checker.check_core ~nvars:2 [ [ 1; 2 ]; [ -1 ] ]);
  Alcotest.(check bool) "odd cycle core" true
    (Checker.check_core ~nvars:10
       [ [ 1; 2 ]; [ 3; 4 ]; [ 5; 6 ]; [ -1; -3 ]; [ -1; -5 ]; [ -3; -5 ];
         [ -2; -4 ]; [ -2; -6 ]; [ -4; -6 ] ])

(* ---------------- randomized tests -------------------------------- *)

let random_3sat_instance rand nvars nclauses =
  List.init nclauses (fun _ ->
      List.init 3 (fun _ ->
          let v = 1 + rand nvars in
          if rand 2 = 0 then v else -v))

let prop_agrees_with_brute_force =
  QCheck.Test.make ~count:200 ~name:"CDCL agrees with brute force on random 3-SAT"
    QCheck.(pair (int_bound 1000000) (int_bound 30))
    (fun (seed, extra) ->
      let st = Random.State.make [| seed; extra |] in
      let rand n = Random.State.int st n in
      let nvars = 4 + rand 6 in
      let nclauses = 3 + rand (4 * nvars) in
      let clauses = random_3sat_instance rand nvars nclauses in
      let s, _ = fresh_solver_with clauses in
      let cdcl_sat = Solver.solve s = Solver.Sat in
      let brute = brute_force_sat nvars clauses in
      if cdcl_sat <> brute then false
      else if cdcl_sat then model_satisfies s clauses
      else begin
        (* unsat: check the core is itself unsat *)
        let all = Array.of_list clauses in
        let core_clauses =
          List.map (fun id -> all.(id)) (Solver.unsat_core s)
        in
        let s2, _ = fresh_solver_with core_clauses in
        Solver.solve s2 = Solver.Unsat
      end)

let prop_proofs_validate =
  QCheck.Test.make ~count:100
    ~name:"unsat proofs and cores validate independently"
    QCheck.(pair (int_bound 1000000) (int_bound 30))
    (fun (seed, extra) ->
      let st = Random.State.make [| seed; extra; 77 |] in
      let rand n = Random.State.int st n in
      let nvars = 4 + rand 4 in
      let nclauses = 3 * nvars in
      let clauses = random_3sat_instance rand nvars nclauses in
      let s, _ = fresh_solver_with clauses in
      match Solver.solve s with
      | Solver.Sat -> true
      | Solver.Unsat ->
        let proof_ok =
          Checker.check_rup ~nvars:(Solver.num_vars s) clauses
            (Solver.proof s)
        in
        let all = Array.of_list clauses in
        let core_clauses =
          List.map (fun id -> all.(id)) (Solver.unsat_core s)
        in
        proof_ok
        && Checker.check_core ~nvars:(Solver.num_vars s) core_clauses)

(* CNFs shaped like the §3.3.2 domain-assignment encoding: exactly-one
   groups (clause types 1-2), binary conflict clauses and equality
   implications (4-5), longer flow clauses (6), plus units, duplicated
   literals and tautologies. *)
let encoding_shaped_instance st =
  let rand n = Random.State.int st n in
  let nvars = 8 + rand 7 in
  let var () = 1 + rand nvars in
  let lit () = if rand 2 = 0 then var () else -var () in
  let clauses = ref [] in
  let add c = clauses := c :: !clauses in
  let first = ref 1 in
  while !first <= nvars do
    let group = List.init (min (2 + rand 5) (nvars - !first + 1)) (( + ) !first) in
    add group;
    List.iter
      (fun a -> List.iter (fun b -> if a < b then add [ -a; -b ]) group)
      group;
    first := !first + List.length group
  done;
  for _ = 1 to 2 + rand 10 do add [ -var (); -var () ] done;
  for _ = 1 to 2 + rand 10 do add [ -var (); var () ] done;
  for _ = 1 to rand 5 do add (List.init (3 + rand 4) (fun _ -> lit ())) done;
  for _ = 1 to rand 3 do add [ lit () ] done;
  for _ = 1 to rand 3 do
    let a = lit () in
    add [ a; lit (); a ]
  done;
  for _ = 1 to rand 2 do
    let a = var () in
    add [ a; lit (); -a ]
  done;
  (nvars, List.rev !clauses)

let prop_encoding_shaped =
  QCheck.Test.make ~count:300
    ~name:"CDCL on encoding-shaped CNFs: verdict, model, core and proof"
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let nvars, clauses =
        encoding_shaped_instance (Random.State.make [| seed; 332 |])
      in
      let s, _ = fresh_solver_with clauses in
      match (Solver.solve s, brute_force_sat nvars clauses) with
      | Solver.Sat, true -> model_satisfies s clauses
      | Solver.Unsat, false ->
        let all = Array.of_list clauses in
        let core = List.map (fun id -> all.(id)) (Solver.unsat_core s) in
        Checker.check_core ~nvars core
        && Checker.check_rup ~nvars clauses (Solver.proof s)
      | _ -> false)

let qcheck_cases =
  List.map (QCheck_alcotest.to_alcotest ~verbose:false)
    [ prop_agrees_with_brute_force; prop_proofs_validate; prop_encoding_shaped ]

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat + core" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "implication chain core" `Quick test_implication_chain;
    Alcotest.test_case "tautology ignored" `Quick test_tautology_ignored;
    Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
    Alcotest.test_case "pigeonhole unsat" `Quick test_pigeonhole;
    Alcotest.test_case "graph colouring sat" `Quick test_graph_coloring_sat;
    Alcotest.test_case "odd cycle unsat + core sound" `Quick
      test_odd_cycle_2coloring_unsat;
    Alcotest.test_case "minimize core" `Quick test_minimize_core;
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "dimacs load" `Quick test_dimacs_load;
    Alcotest.test_case "proof validates" `Quick test_proof_validates;
    Alcotest.test_case "proof rejects bogus" `Quick test_proof_rejects_bogus;
    Alcotest.test_case "pigeonhole proof" `Quick test_proof_pigeonhole;
    Alcotest.test_case "check_core direct" `Quick test_check_core_direct;
  ]
  @ qcheck_cases
