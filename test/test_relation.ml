(* Tests for the relational runtime: construction, set ops, projection,
   rename/copy, join/compose (§2.2), physical-domain replaces, layout
   coercion, extraction (§2.3), and memory accounting (§4.2).  Includes
   the paper's Figure 3 relation and property tests against a reference
   set-of-tuples semantics. *)

module U = Jedd_relation.Universe
module Dom = Jedd_relation.Domain
module Phys = Jedd_relation.Physdom
module Attr = Jedd_relation.Attribute
module Schema = Jedd_relation.Schema
module R = Jedd_relation.Relation

(* A small fixture mirroring the paper's §2 example: types, signatures,
   methods. *)
type fixture = {
  u : U.t;
  type_d : Dom.t;
  sig_d : Dom.t;
  method_d : Dom.t;
  t1 : Phys.t;
  t2 : Phys.t;
  s1 : Phys.t;
  m1 : Phys.t;
}

let fixture () =
  let u = U.create () in
  let type_d = Dom.declare ~name:"Type" ~size:8 () in
  let sig_d = Dom.declare ~name:"Signature" ~size:8 () in
  let method_d = Dom.declare ~name:"Method" ~size:8 () in
  let t1 = Phys.declare u ~name:"T1" ~bits:3 in
  let t2 = Phys.declare u ~name:"T2" ~bits:3 in
  let s1 = Phys.declare u ~name:"S1" ~bits:3 in
  let m1 = Phys.declare u ~name:"M1" ~bits:3 in
  { u; type_d; sig_d; method_d; t1; t2; s1; m1 }

let attr name domain = Attr.declare ~name ~domain

(* ------------------------------------------------------------------ *)

let test_empty_full () =
  let f = fixture () in
  let a = attr "type" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  Alcotest.(check int) "0B has no tuples" 0 (R.size (R.empty f.u sch));
  Alcotest.(check int) "1B has |domain| tuples" 8 (R.size (R.full f.u sch))

let test_full_non_power_of_two () =
  let u = U.create () in
  let d = Dom.declare ~name:"D" ~size:5 () in
  let p = Phys.declare u ~name:"P" ~bits:3 in
  let sch = Schema.make [ { Schema.attr = attr "a" d; phys = p } ] in
  Alcotest.(check int) "1B bounded by domain size" 5 (R.size (R.full u sch))

let test_figure3_relation () =
  (* The implementsMethod relation of Figure 3: two tuples. *)
  let f = fixture () in
  let type_a = attr "type" f.type_d in
  let sig_a = attr "signature" f.sig_d in
  let method_a = attr "method" f.method_d in
  let sch =
    Schema.make
      [
        { Schema.attr = type_a; phys = f.t1 };
        { Schema.attr = sig_a; phys = f.s1 };
        { Schema.attr = method_a; phys = f.m1 };
      ]
  in
  (* A=0, B=1; foo()=0, bar()=1; A.foo()=0, B.bar()=1 *)
  let r = R.of_tuples f.u sch [ [ 0; 0; 0 ]; [ 1; 1; 1 ] ] in
  Alcotest.(check int) "two tuples" 2 (R.size r);
  Alcotest.(check (list (list int)))
    "tuples extracted"
    [ [ 0; 0; 0 ]; [ 1; 1; 1 ] ]
    (R.tuples r)

let test_set_ops () =
  let f = fixture () in
  let a = attr "t" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let x = R.of_tuples f.u sch [ [ 0 ]; [ 1 ]; [ 2 ] ] in
  let y = R.of_tuples f.u sch [ [ 1 ]; [ 3 ] ] in
  Alcotest.(check (list (list int))) "union"
    [ [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (R.tuples (R.union x y));
  Alcotest.(check (list (list int))) "intersection" [ [ 1 ] ]
    (R.tuples (R.inter x y));
  Alcotest.(check (list (list int))) "difference"
    [ [ 0 ]; [ 2 ] ]
    (R.tuples (R.diff x y))

let test_set_ops_auto_replace () =
  (* Same attributes, different physical domains: the runtime must
     insert the replace itself. *)
  let f = fixture () in
  let a = attr "t" f.type_d in
  let sch1 = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let sch2 = Schema.make [ { Schema.attr = a; phys = f.t2 } ] in
  let x = R.of_tuples f.u sch1 [ [ 0 ]; [ 1 ] ] in
  let y = R.of_tuples f.u sch2 [ [ 1 ]; [ 2 ] ] in
  let r = R.union x y in
  Alcotest.(check (list (list int))) "union across layouts"
    [ [ 0 ]; [ 1 ]; [ 2 ] ]
    (R.tuples r);
  Alcotest.(check bool) "equal across layouts" true
    (R.equal x (R.coerce x sch2 |> fun x' -> x'))

let test_type_errors () =
  let f = fixture () in
  let a = attr "a" f.type_d in
  let b = attr "b" f.sig_d in
  let sch_a = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let sch_b = Schema.make [ { Schema.attr = b; phys = f.s1 } ] in
  let x = R.full f.u sch_a in
  let y = R.full f.u sch_b in
  (* [?op]: the message must name the operation *)
  let raises ?op name f =
    match f () with
    | exception R.Type_error msg ->
      Option.iter
        (fun op ->
          if not (String.starts_with ~prefix:(op ^ ":") msg) then
            Alcotest.failf "%s: message %S does not name %s" name msg op)
        op
    | _ -> Alcotest.failf "%s: expected Type_error" name
  in
  raises "union schema mismatch" (fun () -> R.union x y);
  raises "project missing attr" (fun () -> R.project_away x [ b ]);
  raises "rename missing attr" (fun () -> R.rename x [ (b, a) ]);
  raises "join missing attr" (fun () -> R.join x [ b ] y [ b ]);
  raises "tuple arity" (fun () -> R.tuple f.u sch_a [ 1; 2 ]);
  raises "tuple range" (fun () -> R.tuple f.u sch_a [ 99 ]);
  (* operands from three universes over the same attributes *)
  let in_universe u pa pb tuples =
    R.of_tuples u
      (Schema.make
         [ { Schema.attr = a; phys = pa }; { Schema.attr = b; phys = pb } ])
      tuples
  in
  let elsewhere kind tuples =
    let u = U.create ~backend:kind () in
    in_universe u
      (Phys.declare u ~name:"T1" ~bits:3)
      (Phys.declare u ~name:"S1" ~bits:3)
      tuples
  in
  let x = in_universe f.u f.t1 f.s1 [ [ 1; 2 ] ] in
  let other = elsewhere `Incore [ [ 3; 4 ]; [ 5; 6 ] ] in
  let mt = elsewhere `Mtbdd [ [ 3; 4 ] ] in
  raises ~op:"union" "union across universes" (fun () -> R.union x other);
  raises ~op:"intersect" "inter across universes" (fun () ->
      R.inter x other);
  raises ~op:"difference" "diff across universes" (fun () -> R.diff x other);
  raises ~op:"equal" "equal across universes" (fun () -> R.equal x other);
  raises ~op:"join" "join across universes" (fun () ->
      R.join x [ a; b ] other [ a; b ]);
  raises ~op:"compose" "compose across universes" (fun () ->
      R.compose x [ a; b ] other [ a; b ]);
  raises ~op:"union" "union across engines" (fun () -> R.union x mt);
  raises ~op:"join" "join across engines" (fun () ->
      R.join mt [ a; b ] x [ a; b ])

let test_schema_invariants () =
  let f = fixture () in
  let a = attr "a" f.type_d in
  let b = attr "b" f.type_d in
  let inv name g =
    match g () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  inv "duplicate attribute" (fun () ->
      Schema.make
        [ { Schema.attr = a; phys = f.t1 }; { Schema.attr = a; phys = f.t2 } ]);
  inv "shared physical domain" (fun () ->
      Schema.make
        [ { Schema.attr = a; phys = f.t1 }; { Schema.attr = b; phys = f.t1 } ]);
  inv "too narrow" (fun () ->
      let wide = Dom.declare ~name:"Wide" ~size:100 () in
      Schema.make [ { Schema.attr = attr "w" wide; phys = f.t1 } ])

let test_project () =
  let f = fixture () in
  let a = attr "a" f.type_d and b = attr "b" f.sig_d in
  let sch =
    Schema.make
      [ { Schema.attr = a; phys = f.t1 }; { Schema.attr = b; phys = f.s1 } ]
  in
  (* (0,0) (0,1) (1,0): projecting away b leaves {0,1}. *)
  let r = R.of_tuples f.u sch [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ] ] in
  let p = R.project_away r [ b ] in
  Alcotest.(check (list (list int))) "projection merges tuples"
    [ [ 0 ]; [ 1 ] ]
    (R.tuples p);
  Alcotest.(check int) "schema shrank" 1 (Schema.arity (R.schema p))

let test_rename () =
  let f = fixture () in
  let a = attr "a" f.type_d and b = attr "b" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let r = R.of_tuples f.u sch [ [ 3 ] ] in
  let r' = R.rename r [ (a, b) ] in
  Alcotest.(check bool) "renamed attr present" true (Schema.mem (R.schema r') b);
  Alcotest.(check bool) "old attr gone" false (Schema.mem (R.schema r') a);
  Alcotest.(check (list (list int))) "tuples unchanged" [ [ 3 ] ] (R.tuples r');
  (* Rename does not touch the BDD: the attribute keeps its physical
     domain, and the root dumps identically, levels included. *)
  Alcotest.(check bool) "same physical domain" true
    (Phys.equal (Schema.phys_of (R.schema r') b) f.t1);
  let lv = Option.get (R.levelized f.u) in
  Alcotest.(check bool) "same BDD root" true (lv.R.export r = lv.R.export r')

let test_copy () =
  let f = fixture () in
  let a = attr "a" f.type_d and c = attr "c" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let r = R.of_tuples f.u sch [ [ 2 ]; [ 5 ] ] in
  let r' = R.copy ~phys:f.t2 r a ~as_:c in
  Alcotest.(check (list (list int))) "each tuple duplicated attribute"
    [ [ 2; 2 ]; [ 5; 5 ] ]
    (R.tuples r');
  (* copy with automatic scratch physdom *)
  let r'' = R.copy r a ~as_:c in
  Alcotest.(check (list (list int))) "scratch copy"
    [ [ 2; 2 ]; [ 5; 5 ] ]
    (R.tuples r'')

let test_join () =
  let f = fixture () in
  let t = attr "type" f.type_d in
  let s = attr "sig" f.sig_d in
  let mth = attr "method" f.method_d in
  let t' = attr "type2" f.type_d in
  let left_sch =
    Schema.make
      [ { Schema.attr = t; phys = f.t1 }; { Schema.attr = s; phys = f.s1 } ]
  in
  let right_sch =
    Schema.make
      [ { Schema.attr = t'; phys = f.t2 }; { Schema.attr = mth; phys = f.m1 } ]
  in
  (* left: (1, 0) (2, 1); right: (1, 4) (3, 5) — join on type=type2 *)
  let left = R.of_tuples f.u left_sch [ [ 1; 0 ]; [ 2; 1 ] ] in
  let right = R.of_tuples f.u right_sch [ [ 1; 4 ]; [ 3; 5 ] ] in
  let j = R.join left [ t ] right [ t' ] in
  Alcotest.(check (list (list int))) "join result" [ [ 1; 0; 4 ] ] (R.tuples j);
  Alcotest.(check int) "join keeps left compared attr" 3
    (Schema.arity (R.schema j))

let test_join_multi_attr () =
  let f = fixture () in
  let t = attr "type" f.type_d and s = attr "sig" f.sig_d in
  let t' = attr "type2" f.type_d and s' = attr "sig2" f.sig_d in
  let mth = attr "method" f.method_d in
  let left_sch =
    Schema.make
      [ { Schema.attr = t; phys = f.t1 }; { Schema.attr = s; phys = f.s1 } ]
  in
  let right_sch =
    Schema.make
      [
        { Schema.attr = t'; phys = f.t1 };
        { Schema.attr = s'; phys = f.s1 };
        { Schema.attr = mth; phys = f.m1 };
      ]
  in
  let left = R.of_tuples f.u left_sch [ [ 1; 1 ]; [ 2; 2 ] ] in
  let right = R.of_tuples f.u right_sch [ [ 1; 1; 6 ]; [ 2; 1; 7 ] ] in
  let j = R.join left [ t; s ] right [ t'; s' ] in
  Alcotest.(check (list (list int))) "two-attribute join"
    [ [ 1; 1; 6 ] ]
    (R.tuples j)

let test_compose () =
  let f = fixture () in
  let sub = attr "subtype" f.type_d in
  let sup = attr "supertype" f.type_d in
  let t = attr "tgttype" f.type_d in
  let to_resolve_sch = Schema.make [ { Schema.attr = t; phys = f.t2 } ] in
  let extend_sch =
    Schema.make
      [ { Schema.attr = sub; phys = f.t2 }; { Schema.attr = sup; phys = f.t1 } ]
  in
  (* extend: B(1) extends A(0). toResolve currently at B. *)
  let to_resolve = R.of_tuples f.u to_resolve_sch [ [ 1 ] ] in
  let extend = R.of_tuples f.u extend_sch [ [ 1; 0 ] ] in
  let stepped = R.compose to_resolve [ t ] extend [ sub ] in
  Alcotest.(check (list (list int))) "moved up hierarchy" [ [ 0 ] ]
    (R.tuples stepped);
  Alcotest.(check int) "compared attrs projected away" 1
    (Schema.arity (R.schema stepped))

let test_compose_equals_join_project () =
  let f = fixture () in
  let a = attr "a" f.type_d and b = attr "b" f.sig_d in
  let a' = attr "a2" f.type_d and c = attr "c" f.method_d in
  let left_sch =
    Schema.make
      [ { Schema.attr = a; phys = f.t1 }; { Schema.attr = b; phys = f.s1 } ]
  in
  let right_sch =
    Schema.make
      [ { Schema.attr = a'; phys = f.t2 }; { Schema.attr = c; phys = f.m1 } ]
  in
  let left = R.of_tuples f.u left_sch [ [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] ] in
  let right = R.of_tuples f.u right_sch [ [ 0; 5 ]; [ 1; 6 ]; [ 5; 7 ] ] in
  let composed = R.compose left [ a ] right [ a' ] in
  let joined = R.project_away (R.join left [ a ] right [ a' ]) [ a ] in
  Alcotest.(check (list (list int))) "compose = join;project"
    (R.tuples joined) (R.tuples composed)

let test_join_same_physdom_collision () =
  (* Both operands keep everything in the same physical domains; the
     runtime must move the right side out of the way. *)
  let f = fixture () in
  let a = attr "a" f.type_d and b = attr "b" f.type_d in
  let a' = attr "a2" f.type_d and c = attr "c" f.type_d in
  let sch_l =
    Schema.make
      [ { Schema.attr = a; phys = f.t1 }; { Schema.attr = b; phys = f.t2 } ]
  in
  let sch_r =
    Schema.make
      [ { Schema.attr = a'; phys = f.t1 }; { Schema.attr = c; phys = f.t2 } ]
  in
  let left = R.of_tuples f.u sch_l [ [ 0; 1 ]; [ 2; 3 ] ] in
  let right = R.of_tuples f.u sch_r [ [ 0; 4 ]; [ 2; 5 ]; [ 6; 7 ] ] in
  let j = R.join left [ a ] right [ a' ] in
  Alcotest.(check (list (list int))) "collision-safe join"
    [ [ 0; 1; 4 ]; [ 2; 3; 5 ] ]
    (R.tuples j)

let test_select () =
  let f = fixture () in
  let a = attr "a" f.type_d and b = attr "b" f.sig_d in
  let sch =
    Schema.make
      [ { Schema.attr = a; phys = f.t1 }; { Schema.attr = b; phys = f.s1 } ]
  in
  let r = R.of_tuples f.u sch [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 1 ] ] in
  Alcotest.(check (list (list int))) "select a=0"
    [ [ 0; 0 ]; [ 0; 1 ] ]
    (R.tuples (R.select r [ (a, 0) ]));
  Alcotest.(check (list (list int))) "select a=0,b=1"
    [ [ 0; 1 ] ]
    (R.tuples (R.select r [ (a, 0); (b, 1) ]))

let test_replace_explicit () =
  let f = fixture () in
  let a = attr "a" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let r = R.of_tuples f.u sch [ [ 3 ]; [ 6 ] ] in
  let r' = R.replace r [ (a, f.t2) ] in
  Alcotest.(check bool) "physdom changed" true
    (Phys.equal (Schema.phys_of (R.schema r') a) f.t2);
  Alcotest.(check (list (list int))) "contents preserved"
    [ [ 3 ]; [ 6 ] ]
    (R.tuples r')

let test_replace_width_mismatch () =
  (* Moving between physical domains of different widths. *)
  let u = U.create () in
  let d = Dom.declare ~name:"D" ~size:6 () in
  let narrow = Phys.declare u ~name:"N" ~bits:3 in
  let wide = Phys.declare u ~name:"W" ~bits:5 in
  let a = attr "a" d in
  let sch_n = Schema.make [ { Schema.attr = a; phys = narrow } ] in
  let r = R.of_tuples u sch_n [ [ 1 ]; [ 5 ] ] in
  let widened = R.replace r [ (a, wide) ] in
  Alcotest.(check (list (list int))) "narrow->wide" [ [ 1 ]; [ 5 ] ]
    (R.tuples widened);
  let back = R.replace widened [ (a, narrow) ] in
  Alcotest.(check (list (list int))) "wide->narrow" [ [ 1 ]; [ 5 ] ]
    (R.tuples back)

let test_iter_objects () =
  let f = fixture () in
  let a = attr "a" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let r = R.of_tuples f.u sch [ [ 2 ]; [ 4 ]; [ 7 ] ] in
  let objs = ref [] in
  R.iter_objects r (fun o -> objs := o :: !objs);
  Alcotest.(check (list int)) "objects" [ 2; 4; 7 ] (List.sort compare !objs)

let test_to_string () =
  let f = fixture () in
  let type_a = attr "type" f.type_d in
  let sch = Schema.make [ { Schema.attr = type_a; phys = f.t1 } ] in
  let r = R.of_tuples f.u sch [ [ 0 ] ] in
  let s = R.to_string r in
  Alcotest.(check bool) "header present" true
    (String.length s > 0
    &&
    let lines = String.split_on_char '\n' s in
    match lines with
    | header :: _ -> String.trim header = "type"
    | [] -> false)

let test_release_accounting () =
  let f = fixture () in
  let a = attr "a" f.type_d in
  let sch = Schema.make [ { Schema.attr = a; phys = f.t1 } ] in
  let before = R.live_root_count f.u in
  let r = R.full f.u sch in
  Alcotest.(check int) "one more live root" (before + 1)
    (R.live_root_count f.u);
  R.release r;
  Alcotest.(check int) "released" before (R.live_root_count f.u);
  (* releasing twice is harmless *)
  R.release r;
  Alcotest.(check int) "double release harmless" before (R.live_root_count f.u)

(* ---------------- property tests: BDD relations vs a reference
   set-of-tuples implementation --------------------------------------- *)

module TupleSet = Set.Make (struct
  type t = int list

  let compare = compare
end)

let prop_ops_match_reference =
  QCheck.Test.make ~count:100
    ~name:"relation algebra matches reference set semantics"
    QCheck.(pair (int_bound 1000000) (int_bound 100))
    (fun (seed, extra) ->
      let st = Random.State.make [| seed; extra |] in
      let rand n = Random.State.int st n in
      let u = U.create () in
      let d1 = Dom.declare ~name:"D1" ~size:5 () in
      let d2 = Dom.declare ~name:"D2" ~size:7 () in
      let p1 = Phys.declare u ~name:"P1" ~bits:3 in
      let p2 = Phys.declare u ~name:"P2" ~bits:3 in
      let p3 = Phys.declare u ~name:"P3" ~bits:3 in
      let a = attr "a" d1 and b = attr "b" d2 in
      let a' = attr "a2" d1 and c = attr "c" d2 in
      let sch_ab =
        Schema.make
          [ { Schema.attr = a; phys = p1 }; { Schema.attr = b; phys = p2 } ]
      in
      let sch_ac =
        Schema.make
          [ { Schema.attr = a'; phys = p1 }; { Schema.attr = c; phys = p3 } ]
      in
      let random_tuples n gen =
        List.init n (fun _ -> gen ()) |> List.sort_uniq compare
      in
      let ts1 =
        random_tuples (rand 12) (fun () -> [ rand 5; rand 7 ])
      in
      let ts2 =
        random_tuples (rand 12) (fun () -> [ rand 5; rand 7 ])
      in
      let ts3 = random_tuples (rand 12) (fun () -> [ rand 5; rand 7 ]) in
      let r1 = R.of_tuples u sch_ab ts1 in
      let r2 = R.of_tuples u sch_ab ts2 in
      let r3 = R.of_tuples u sch_ac ts3 in
      let s1 = TupleSet.of_list ts1 in
      let s2 = TupleSet.of_list ts2 in
      let s3 = TupleSet.of_list ts3 in
      (* union / inter / diff *)
      let check_set op_name got expect =
        if got <> TupleSet.elements expect then
          QCheck.Test.fail_reportf "%s mismatch" op_name
      in
      check_set "union" (R.tuples (R.union r1 r2)) (TupleSet.union s1 s2);
      check_set "inter" (R.tuples (R.inter r1 r2)) (TupleSet.inter s1 s2);
      check_set "diff" (R.tuples (R.diff r1 r2)) (TupleSet.diff s1 s2);
      (* project *)
      let proj =
        TupleSet.elements s1
        |> List.map (fun t -> [ List.nth t 0 ])
        |> List.sort_uniq compare
      in
      if R.tuples (R.project_away r1 [ b ]) <> proj then
        QCheck.Test.fail_reportf "project mismatch";
      (* join on a=a2: (a b) >< (a2 c) = (a b c) where a=a2 *)
      let join_ref =
        List.concat_map
          (fun t1 ->
            List.filter_map
              (fun t2 ->
                if List.nth t1 0 = List.nth t2 0 then
                  Some [ List.nth t1 0; List.nth t1 1; List.nth t2 1 ]
                else None)
              (TupleSet.elements s3))
          (TupleSet.elements s1)
        |> List.sort_uniq compare
      in
      if R.tuples (R.join r1 [ a ] r3 [ a' ]) <> join_ref then
        QCheck.Test.fail_reportf "join mismatch";
      (* compose on a=a2 *)
      let compose_ref =
        List.map (fun t -> List.tl t) join_ref |> List.sort_uniq compare
      in
      if R.tuples (R.compose r1 [ a ] r3 [ a' ]) <> compose_ref then
        QCheck.Test.fail_reportf "compose mismatch";
      (* size *)
      if R.size r1 <> TupleSet.cardinal s1 then
        QCheck.Test.fail_reportf "size mismatch";
      true)

(* algebraic laws of the relational operators, on random relations *)
let prop_algebraic_laws =
  QCheck.Test.make ~count:100 ~name:"relational algebra laws"
    QCheck.(pair (int_bound 1000000) (int_bound 100))
    (fun (seed, extra) ->
      let st = Random.State.make [| seed; extra; 3 |] in
      let rand n = Random.State.int st n in
      let u = U.create () in
      let d1 = Dom.declare ~name:"D1" ~size:6 () in
      let d2 = Dom.declare ~name:"D2" ~size:6 () in
      let p1 = Phys.declare u ~name:"P1" ~bits:3 in
      let p2 = Phys.declare u ~name:"P2" ~bits:3 in
      let p3 = Phys.declare u ~name:"P3" ~bits:3 in
      let a = attr "a" d1 and b = attr "b" d2 in
      let a' = attr "a2" d1 and c = attr "c" d2 in
      let sch =
        Schema.make
          [ { Schema.attr = a; phys = p1 }; { Schema.attr = b; phys = p2 } ]
      in
      let sch2 =
        Schema.make
          [ { Schema.attr = a'; phys = p1 }; { Schema.attr = c; phys = p3 } ]
      in
      let random_rel s =
        R.of_tuples u s
          (List.init (rand 10) (fun _ -> [ rand 6; rand 6 ])
          |> List.sort_uniq compare)
      in
      let x = random_rel sch and y = random_rel sch and z = random_rel sch in
      let w = random_rel sch2 in
      let ( === ) r1 r2 = R.equal r1 r2 in
      (* boolean-algebra laws *)
      R.union x y === R.union y x
      && R.inter x y === R.inter y x
      && R.union x (R.union y z) === R.union (R.union x y) z
      && R.inter x (R.union y z) === R.union (R.inter x y) (R.inter x z)
      && R.diff x y === R.inter x (R.diff (R.full u sch) y)
      (* idempotence and identities *)
      && R.union x x === x
      && R.inter x (R.full u sch) === x
      && R.diff x (R.empty u sch) === x
      (* join distributes over union in its left argument *)
      && R.join (R.union x y) [ a ] w [ a' ]
         === R.union (R.join x [ a ] w [ a' ]) (R.join y [ a ] w [ a' ])
      (* projection after union = union of projections *)
      && R.project_away (R.union x y) [ b ]
         === R.union (R.project_away x [ b ]) (R.project_away y [ b ])
      (* rename round-trip *)
      &&
      let renamed = R.rename x [ (a, a') ] in
      R.rename renamed [ (a', a) ] === x
      (* copy then project the copy = original *)
      &&
      let copied = R.copy x a ~as_:a' in
      R.project_away copied [ a' ] === x)

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [ prop_ops_match_reference; prop_algebraic_laws ]

let suite =
  [
    Alcotest.test_case "empty and full" `Quick test_empty_full;
    Alcotest.test_case "full non-power-of-two" `Quick test_full_non_power_of_two;
    Alcotest.test_case "figure 3 relation" `Quick test_figure3_relation;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "set ops auto-replace" `Quick test_set_ops_auto_replace;
    Alcotest.test_case "type errors" `Quick test_type_errors;
    Alcotest.test_case "schema invariants" `Quick test_schema_invariants;
    Alcotest.test_case "projection" `Quick test_project;
    Alcotest.test_case "rename" `Quick test_rename;
    Alcotest.test_case "copy" `Quick test_copy;
    Alcotest.test_case "join" `Quick test_join;
    Alcotest.test_case "join on two attributes" `Quick test_join_multi_attr;
    Alcotest.test_case "compose" `Quick test_compose;
    Alcotest.test_case "compose = join;project" `Quick
      test_compose_equals_join_project;
    Alcotest.test_case "join with physdom collision" `Quick
      test_join_same_physdom_collision;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "explicit replace" `Quick test_replace_explicit;
    Alcotest.test_case "replace width mismatch" `Quick
      test_replace_width_mismatch;
    Alcotest.test_case "iter objects" `Quick test_iter_objects;
    Alcotest.test_case "to_string" `Quick test_to_string;
    Alcotest.test_case "release accounting" `Quick test_release_accounting;
  ]
  @ qcheck_cases
