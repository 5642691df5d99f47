(* Two end-to-end differentials on the relation engine.

   Both cases once ran the in-core engine in lockstep with the
   terminal-valued (mtbdd) engine, which is deleted; they keep the suite
   and case names they have always run under.  The relational storm now
   checks every in-core result against a tuple-set reference, and the
   pipeline differential checks the per-analysis pipeline against the
   combined one, relation for relation. *)

module U = Jedd_relation.Universe
module Dom = Jedd_relation.Domain
module Attr = Jedd_relation.Attribute
module Phys = Jedd_relation.Physdom
module Schema = Jedd_relation.Schema
module R = Jedd_relation.Relation
module Workload = Jedd_minijava.Workload
module Suite = Jedd_analyses.Suite

let random_tuples rand ~size_a ~size_b =
  List.init
    (Random.State.int rand 12)
    (fun _ -> [ Random.State.int rand size_a; Random.State.int rand size_b ])

let set tuples = List.sort_uniq compare tuples
let nth = List.nth

(* A randomized relational program whose results feed later operations,
   each paired with its tuple set: tuples, size and emptiness must agree
   after every operation. *)
let relational_storm ~rounds ~seed =
  let rand = Random.State.make [| seed |] in
  let dom_a = Dom.declare ~name:"DA" ~size:8 () in
  let dom_b = Dom.declare ~name:"DB" ~size:5 () in
  (* non-power-of-two *)
  let a = Attr.declare ~name:"a" ~domain:dom_a in
  let b = Attr.declare ~name:"b" ~domain:dom_a in
  let c = Attr.declare ~name:"c" ~domain:dom_b in
  let u = U.create () in
  let p =
    Array.init 4 (fun i -> Phys.declare u ~name:(Printf.sprintf "P%d" i) ~bits:3)
  in
  let xsch =
    Schema.make [ { Schema.attr = a; phys = p.(0) }; { Schema.attr = b; phys = p.(1) } ]
  in
  let ysch =
    Schema.make [ { Schema.attr = b; phys = p.(2) }; { Schema.attr = c; phys = p.(3) } ]
  in
  let fresh sch tuples = (R.of_tuples u sch tuples, set tuples) in
  let fresh_x () = fresh xsch (random_tuples rand ~size_a:8 ~size_b:8) in
  let fresh_y () = fresh ysch (random_tuples rand ~size_a:8 ~size_b:5) in
  let xs = ref [ fresh_x () ] in
  let ys = ref [ fresh_y () ] in
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  let check what (r, expect) =
    Alcotest.(check (list (list int))) (what ^ ": tuples") expect (R.tuples r);
    Alcotest.(check int) (what ^ ": size") (List.length expect) (R.size r);
    Alcotest.(check bool) (what ^ ": emptiness") (expect = []) (R.is_empty r)
  in
  for round = 1 to rounds do
    let what = Printf.sprintf "round %d" round in
    let result =
      match Random.State.int rand 9 with
      | 0 ->
        let x1, s1 = pick !xs and x2, s2 = pick !xs in
        (R.union x1 x2, set (s1 @ s2))
      | 1 ->
        let x1, s1 = pick !xs and x2, s2 = pick !xs in
        (R.inter x1 x2, List.filter (fun t -> List.mem t s2) s1)
      | 2 ->
        let x1, s1 = pick !xs and x2, s2 = pick !xs in
        (R.diff x1 x2, List.filter (fun t -> not (List.mem t s2)) s1)
      | 3 ->
        (* join on b, then drop c and restore the canonical layout *)
        let x, sx = pick !xs and y, sy = pick !ys in
        ( R.coerce (R.project_away (R.join x [ b ] y [ b ]) [ c ]) xsch,
          List.filter
            (fun t -> List.exists (fun t' -> nth t' 0 = nth t 1) sy)
            sx )
      | 4 ->
        (* compose x's a with y's b: {b, c}; checked, then an x
           relation stands in *)
        let x, sx = pick !xs and y, sy = pick !ys in
        check (what ^ " compose")
          ( R.compose x [ a ] y [ b ],
            set
              (List.concat_map
                 (fun t ->
                   List.filter_map
                     (fun t' ->
                       if nth t 0 = nth t' 0 then Some [ nth t 1; nth t' 1 ]
                       else None)
                     sy)
                 sx) );
        pick !xs
      | 5 ->
        let x, sx = pick !xs in
        let v = Random.State.int rand 8 in
        (R.select x [ (a, v) ], List.filter (fun t -> nth t 0 = v) sx)
      | 6 ->
        (* copy a into a scratch column, then forget it again *)
        let x, sx = pick !xs in
        let d = Attr.declare ~name:(Printf.sprintf "d%d" round) ~domain:dom_a in
        (R.project_away (R.copy ~phys:p.(2) x a ~as_:d) [ d ], sx)
      | 7 ->
        (* move a to another physical domain and back: replace both ways *)
        let x, sx = pick !xs in
        (R.coerce (R.replace x [ (a, p.(3)) ]) xsch, sx)
      | _ -> fresh_x ()
    in
    check what result;
    xs := result :: (if List.length !xs > 6 then List.tl !xs else !xs);
    if Random.State.int rand 3 = 0 then ys := fresh_y () :: List.tl !ys
  done

let test_relational_storm () = relational_storm ~rounds:150 ~seed:7

(* The five analyses one universe per analysis and all in one universe,
   every executed IR instruction shadow-checked (JEDD_CHECK_IR): the
   two pipelines agree on all six result relations, [resolved] included,
   which {!Suite.verify} has no reference for. *)
let test_pipeline_differential () =
  let p = Workload.generate Workload.tiny in
  let separate, combined =
    Test_lint.with_check_ir (fun () ->
        (Suite.run_all p, snd (Suite.run_combined p)))
  in
  let check name f =
    Alcotest.(check (list (list int))) name (f separate) (f combined)
  in
  check "subtypes" (fun r -> r.Suite.subtypes);
  check "pt" (fun r -> r.Suite.pt);
  check "resolved" (fun r -> r.Suite.resolved);
  check "call_edges" (fun r -> r.Suite.call_edges);
  check "reachable" (fun r -> r.Suite.reachable);
  check "side_effects" (fun r -> r.Suite.side_effects)

let suite =
  [
    Alcotest.test_case "cross-backend relational storm" `Quick
      test_relational_storm;
    Alcotest.test_case "full pipeline differential" `Quick
      test_pipeline_differential;
  ]
