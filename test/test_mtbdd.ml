(* Tests for the terminal-valued (MTBDD) engine and the weighted
   relation surface built on it.

   Part 1 exercises the store directly: randomized terminal-op property
   tests (apply commutativity and identities, threshold∘of_bool = id,
   exist aggregation against brute-force enumeration, replace and the
   fused relprod kernel against their unfused compositions).

   Part 2 drives the weighted Relation API, and part 3 runs the two
   weighted analyses end to end on a generated program, differencing
   every count against a recount of the boolean in-core results — the
   projection bit-identity that anchors the whole backend.  Part 4
   checks that identity on boolean relations: a randomized relational
   storm and the five analyses, in lockstep with the in-core engine. *)

module Mt = Jedd_mtbdd.Mtbdd
module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module U = Jedd_relation.Universe
module Dom = Jedd_relation.Domain
module Attr = Jedd_relation.Attribute
module Phys = Jedd_relation.Physdom
module Schema = Jedd_relation.Schema
module R = Jedd_relation.Relation
module Workload = Jedd_minijava.Workload
module Suite = Jedd_analyses.Suite
module Weighted = Jedd_analyses.Weighted

let nlevels = 6
let formula_bits = 4 (* keep levels 4,5 free as replace targets *)
let all_levels = List.init nlevels Fun.id
let all_levels_a = Array.of_list all_levels
let formula_levels = List.init formula_bits Fun.id

(* The weighted indicator of one assignment of the formula levels: a
   chain of nodes with terminal [w] on the assignment's path and 0
   elsewhere (levels [formula_bits..nlevels-1] stay free). *)
let weighted_cube st bits w =
  let node = ref (Mt.terminal st w) in
  for lvl = formula_bits - 1 downto 0 do
    node :=
      (if bits.(lvl) then Mt.mk st lvl (Mt.zero st) !node
       else Mt.mk st lvl !node (Mt.zero st))
  done;
  !node

(* A random diagram as a sum of weighted assignment indicators. *)
let random_diagram rand st =
  let acc = ref (Mt.zero st) in
  for _ = 1 to 1 + Random.State.int rand 8 do
    let bits = Array.init formula_bits (fun _ -> Random.State.bool rand) in
    let w = 1 + Random.State.int rand 9 in
    acc := Mt.apply st Mt.Add !acc (weighted_cube st bits w)
  done;
  !acc

(* Brute-force map of a diagram: assignment bits (as an int) -> value. *)
let table st f =
  let out = Hashtbl.create 64 in
  Mt.iter_weighted st f ~levels:all_levels_a (fun bits w ->
      let key =
        Array.fold_left (fun a b -> (a lsl 1) lor if b then 1 else 0) 0 bits
      in
      Hashtbl.replace out key w);
  out

let sat_add a b = min Mt.value_cap (a + b)
let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > Mt.value_cap / b then Mt.value_cap
  else a * b

let op_fun = function
  | Mt.Add -> sat_add
  | Mt.Min -> min
  | Mt.Max -> max
  | Mt.Mul -> sat_mul
  | Mt.Diff -> fun a b -> if b = 0 then a else 0

let test_apply_properties () =
  let rand = Random.State.make [| 42 |] in
  let st = Mt.create () in
  for round = 1 to 60 do
    let f = random_diagram rand st in
    let g = random_diagram rand st in
    (* commutativity of the commutative ops: identical handles *)
    List.iter
      (fun op ->
        Alcotest.(check int)
          (Printf.sprintf "round %d: apply commutes" round)
          (Mt.apply st op f g) (Mt.apply st op g f))
      [ Mt.Add; Mt.Min; Mt.Max; Mt.Mul ];
    (* identities *)
    Alcotest.(check int) "f + 0 = f" f (Mt.apply st Mt.Add f (Mt.zero st));
    Alcotest.(check int) "f * 1 = f" f (Mt.apply st Mt.Mul f (Mt.one st));
    Alcotest.(check int) "max f 0 = f" f (Mt.apply st Mt.Max f (Mt.zero st));
    Alcotest.(check int) "f - 0B = f" f (Mt.apply st Mt.Diff f (Mt.zero st));
    Alcotest.(check int) "f * 0 = 0" (Mt.zero st)
      (Mt.apply st Mt.Mul f (Mt.zero st));
    (* pointwise semantics against brute force *)
    List.iter
      (fun op ->
        let tf = table st f and tg = table st g in
        let th = table st (Mt.apply st op f g) in
        let expect = Hashtbl.create 64 in
        for key = 0 to (1 lsl nlevels) - 1 do
          let a = Option.value (Hashtbl.find_opt tf key) ~default:0 in
          let b = Option.value (Hashtbl.find_opt tg key) ~default:0 in
          let v = (op_fun op) a b in
          if v <> 0 then Hashtbl.replace expect key v
        done;
        Alcotest.(check int)
          (Printf.sprintf "round %d: pointwise size" round)
          (Hashtbl.length expect) (Hashtbl.length th);
        Hashtbl.iter
          (fun key v ->
            Alcotest.(check int) "pointwise value" v
              (Option.value (Hashtbl.find_opt th key) ~default:0))
          expect)
      [ Mt.Add; Mt.Min; Mt.Max; Mt.Mul; Mt.Diff ];
    Mt.checkpoint st
  done

let test_exist_aggregation () =
  let rand = Random.State.make [| 43 |] in
  let st = Mt.create () in
  for round = 1 to 40 do
    let f = random_diagram rand st in
    let q =
      List.filter (fun _ -> Random.State.bool rand) all_levels
    in
    let keep = List.filter (fun l -> not (List.mem l q)) all_levels in
    let tf = table st f in
    (* project the brute-force table down to the kept levels *)
    let project agg =
      let out = Hashtbl.create 32 in
      Hashtbl.iter
        (fun key v ->
          let kkey =
            List.fold_left
              (fun a l -> (a lsl 1) lor ((key lsr (nlevels - 1 - l)) land 1))
              0 keep
          in
          let prev = Option.value (Hashtbl.find_opt out kkey) ~default:0 in
          Hashtbl.replace out kkey
            (match agg with Mt.Sum -> sat_add prev v | Mt.Max_agg -> max prev v))
        tf;
      out
    in
    List.iter
      (fun agg ->
        let r = Mt.exist st agg f q in
        let tr = table st r in
        (* re-key the result over the kept levels only *)
        let got = Hashtbl.create 32 in
        Hashtbl.iter
          (fun key v ->
            let kkey =
              List.fold_left
                (fun a l -> (a lsl 1) lor ((key lsr (nlevels - 1 - l)) land 1))
                0 keep
            in
            Hashtbl.replace got kkey v)
          tr;
        let expect = project agg in
        Alcotest.(check int)
          (Printf.sprintf "round %d: exist size" round)
          (Hashtbl.length expect) (Hashtbl.length got);
        Hashtbl.iter
          (fun kkey v ->
            Alcotest.(check int) "exist value" v
              (Option.value (Hashtbl.find_opt got kkey) ~default:0))
          expect)
      [ Mt.Sum; Mt.Max_agg ];
    Mt.checkpoint st
  done

let test_bool_roundtrip () =
  let rand = Random.State.make [| 44 |] in
  let st = Mt.create () in
  let m = M.create () in
  for _ = 1 to nlevels do
    ignore (M.new_var m)
  done;
  for round = 1 to 60 do
    (* a random boolean function as a disjunction of cubes *)
    let f = ref M.zero in
    for _ = 1 to 1 + Random.State.int rand 6 do
      let cube =
        Ops.cube m
          (List.filter_map
             (fun l ->
               if Random.State.bool rand then
                 Some (l, Random.State.bool rand)
               else None)
             all_levels)
      in
      f := Ops.bor m !f cube
    done;
    (* threshold ∘ of_bool = id, through both abstraction paths *)
    let lifted = Mt.of_bool st m !f in
    Alcotest.(check int)
      (Printf.sprintf "round %d: to_bool (of_bool f) = f" round)
      !f
      (Mt.to_bool st m lifted);
    Alcotest.(check int) "threshold_bool (of_bool f) 1 = f" !f
      (Mt.threshold_bool st m lifted 1);
    Alcotest.(check int) "threshold (of_bool f) 1 = of_bool f" lifted
      (Mt.threshold st lifted 1);
    (* weighted lift thresholds back at its weight *)
    let w = 2 + Random.State.int rand 5 in
    let heavy = Mt.of_bool st m ~weight:w !f in
    Alcotest.(check int) "threshold_bool at the lift weight" !f
      (Mt.threshold_bool st m heavy w);
    Alcotest.(check int) "threshold above the lift weight kills" M.zero
      (Mt.threshold_bool st m heavy (w + 1));
    Mt.checkpoint st;
    M.checkpoint m
  done

let test_replace_and_relprod () =
  let rand = Random.State.make [| 45 |] in
  let st = Mt.create () in
  for round = 1 to 40 do
    let f = random_diagram rand st in
    let g = random_diagram rand st in
    (* move up to two formula levels onto the free target levels 4/5;
       targets in descending order exercise the non-order-preserving
       fallback, ascending the direct relabeling pass *)
    let targets = if Random.State.bool rand then [ 4; 5 ] else [ 5; 4 ] in
    let srcs =
      List.filter (fun _ -> Random.State.bool rand) formula_levels
      |> fun l -> List.filteri (fun i _ -> i < 2) l
    in
    let pairs = List.map2 (fun s t -> (s, t)) srcs
        (List.filteri (fun i _ -> i < List.length srcs) targets)
    in
    (* on full-assignment tables, moving src to a free target is the
       transposition of the two bits: both sides are independent of the
       other's level *)
    let swap_key key =
      List.fold_left
        (fun k (s, t) ->
          let bs = (key lsr (nlevels - 1 - s)) land 1 in
          let bt = (key lsr (nlevels - 1 - t)) land 1 in
          let k =
            k
            land lnot
                   ((1 lsl (nlevels - 1 - s)) lor (1 lsl (nlevels - 1 - t)))
          in
          k lor (bs lsl (nlevels - 1 - t)) lor (bt lsl (nlevels - 1 - s)))
        key pairs
    in
    let r = Mt.replace st g pairs in
    let tg = table st g and tr = table st r in
    Alcotest.(check int)
      (Printf.sprintf "round %d: replace size" round)
      (Hashtbl.length tg) (Hashtbl.length tr);
    Hashtbl.iter
      (fun key v ->
        Alcotest.(check int) "replace value" v
          (Option.value (Hashtbl.find_opt tr (swap_key key)) ~default:0))
      tg;
    (* fused relprod = its unfused composition, for both aggregations *)
    let q = List.filter (fun _ -> Random.State.bool rand) all_levels in
    List.iter
      (fun (combine, agg) ->
        let fused = Mt.relprod_replace st ~combine ~agg f g pairs q in
        let unfused =
          Mt.exist st agg (Mt.apply st combine f (Mt.replace st g pairs)) q
        in
        Alcotest.(check int)
          (Printf.sprintf "round %d: fused = unfused" round)
          unfused fused)
      [ (Mt.Mul, Mt.Max_agg); (Mt.Mul, Mt.Sum); (Mt.Min, Mt.Max_agg) ];
    Mt.checkpoint st
  done;
  let fused, fallback = Mt.fused_stats () in
  Alcotest.(check bool) "fused kernel exercised" true (fused + fallback > 0)

let test_gc_and_stats () =
  let rand = Random.State.make [| 46 |] in
  let st = Mt.create () in
  let root = random_diagram rand st in
  Mt.addref st root;
  let before = table st root in
  for _ = 1 to 50 do
    ignore (random_diagram rand st);
    Mt.checkpoint st
  done;
  Mt.gc st;
  let after = table st root in
  Alcotest.(check int) "root survives GC (size)" (Hashtbl.length before)
    (Hashtbl.length after);
  Hashtbl.iter
    (fun key v ->
      Alcotest.(check int) "root survives GC (value)" v
        (Option.value (Hashtbl.find_opt after key) ~default:0))
    before;
  Alcotest.(check bool) "GC ran" true (Mt.gc_count st >= 1);
  let hits, misses, _ = Mt.cache_totals st in
  Alcotest.(check bool) "cache active" true (hits + misses > 0);
  Alcotest.(check bool) "per-tag stats present" true
    (List.exists
       (fun (s : Mt.cache_stat) -> s.name = "mt-apply-add" && s.misses > 0)
       (Mt.cache_stats st));
  Alcotest.(check bool) "terminal gauge counts 0 and the weights" true
    (Mt.distinct_terminals st >= 2)

(* -- part 2: the weighted Relation surface ------------------------------ *)

let weighted_universe () =
  let u = U.create ~backend:`Mtbdd () in
  let dom = Dom.declare ~name:"D" ~size:8 () in
  let a = Attr.declare ~name:"a" ~domain:dom in
  let b = Attr.declare ~name:"b" ~domain:dom in
  let p0 = Phys.declare u ~name:"P0" ~bits:3 in
  let p1 = Phys.declare u ~name:"P1" ~bits:3 in
  let sch =
    Schema.make [ { Schema.attr = a; phys = p0 }; { Schema.attr = b; phys = p1 } ]
  in
  (u, sch, a, b)

let test_weighted_relations () =
  let u, sch, _a, b = weighted_universe () in
  let r =
    R.of_weighted_tuples u sch
      [ ([ 1; 2 ], 3); ([ 1; 4 ], 2); ([ 5; 2 ], 1); ([ 1; 2 ], 4) ]
  in
  (* duplicates sum; zero weight is absence *)
  Alcotest.(check (list (pair (list int) int)))
    "weight_of_tuples"
    [ ([ 1; 2 ], 7); ([ 1; 4 ], 2); ([ 5; 2 ], 1) ]
    (R.weight_of_tuples r);
  Alcotest.(check int) "weight_of present" 7 (R.weight_of r [ 1; 2 ]);
  Alcotest.(check int) "weight_of absent" 0 (R.weight_of r [ 7; 7 ]);
  Alcotest.(check int) "total_weight" 10 (R.total_weight r);
  Alcotest.(check int) "boolean size sees support" 3 (R.size r);
  (* counting projection: sum out b *)
  let per_a = R.project_sum r [ b ] in
  Alcotest.(check (list (pair (list int) int)))
    "project_sum"
    [ ([ 1 ], 9); ([ 5 ], 1) ]
    (R.weight_of_tuples per_a);
  (* scale and threshold *)
  let doubled = R.scale r 2 in
  Alcotest.(check int) "scale doubles total" 20 (R.total_weight doubled);
  let heavy = R.threshold r 2 in
  Alcotest.(check (list (pair (list int) int)))
    "threshold >= 2"
    [ ([ 1; 2 ], 1); ([ 1; 4 ], 1) ]
    (R.weight_of_tuples heavy);
  (* boolean connectives on weighted operands: & preserves via the mask,
     | takes the pointwise max *)
  let mask = R.of_tuples u sch [ [ 1; 2 ]; [ 7; 7 ] ] in
  let masked = R.inter r mask in
  Alcotest.(check (list (pair (list int) int)))
    "inter with a 0/1 mask keeps weights"
    [ ([ 1; 2 ], 7) ]
    (R.weight_of_tuples masked);
  let r2 = R.of_weighted_tuples u sch [ ([ 1; 2 ], 2); ([ 6; 6 ], 5) ] in
  Alcotest.(check (list (pair (list int) int)))
    "union takes pointwise max"
    [ ([ 1; 2 ], 7); ([ 1; 4 ], 2); ([ 5; 2 ], 1); ([ 6; 6 ], 5) ]
    (R.weight_of_tuples (R.union r r2));
  (* the weighted surface rejects the in-core engine *)
  let ub = U.create ~backend:`Incore () in
  let pb0 = Phys.declare ub ~name:"P0" ~bits:3 in
  let pb1 = Phys.declare ub ~name:"P1" ~bits:3 in
  let schb =
    Schema.make
      [ { Schema.attr = _a; phys = pb0 }; { Schema.attr = b; phys = pb1 } ]
  in
  Alcotest.check_raises "Type_error on incore"
    (R.Type_error
       "Relation.of_weighted_tuples: requires an mtbdd universe (this one \
        is incore)")
    (fun () -> ignore (R.of_weighted_tuples ub schb [ ([ 1; 2 ], 3) ]))

(* -- part 3: the weighted analyses, differenced against in-core --------- *)

let test_weighted_analyses () =
  let p = Workload.generate Workload.tiny in
  let ri = Suite.run_all ~backend:`Incore p in
  (* allocation-count points-to: support bit-identical, counts = recount *)
  let ac = Weighted.run_alloc_counts p in
  Alcotest.(check (list (list int)))
    "weighted pt support = incore pt" ri.Suite.pt
    (R.tuples ac.Weighted.ac_pt);
  Alcotest.(check (list (pair int int)))
    "alloc counts = recount of boolean pt"
    (Weighted.recount_by_first ri.Suite.pt)
    (Weighted.alloc_counts_list ac);
  (* call-frequency weighted call graph *)
  let cf = Weighted.run_call_freqs p ~call_edges:ri.Suite.call_edges in
  (* expected reachable edges: call sites sitting in reachable methods *)
  let reachable = List.filter_map (function [ m ] -> Some m | _ -> None) ri.Suite.reachable in
  let site_in =
    List.map
      (fun (cs : Jedd_minijava.Program.call_site) ->
        (cs.Jedd_minijava.Program.cs_id, cs.Jedd_minijava.Program.cs_in_method))
      p.Jedd_minijava.Program.calls
  in
  let live_edges =
    List.filter
      (function
        | [ cs; _ ] -> (
          match List.assoc_opt cs site_in with
          | Some m -> List.mem m reachable
          | None -> false)
        | _ -> false)
      ri.Suite.call_edges
    |> List.sort compare
  in
  Alcotest.(check (list (list int)))
    "weighted edge support = reachable boolean edges" live_edges
    (R.tuples cf.Weighted.cf_edges);
  (* every live edge's frequency matches the static computation *)
  let expected_w = Weighted.edge_weights p ~call_edges:ri.Suite.call_edges in
  List.iter
    (fun ((cs, m), freq) ->
      Alcotest.(check int)
        (Printf.sprintf "edge %d->%d frequency" cs m)
        (List.assoc [ cs; m ] expected_w)
        freq)
    (Weighted.edge_freqs_list cf);
  (* hotness = per-method sum of the live edge frequencies *)
  let expect_hot = Hashtbl.create 16 in
  List.iter
    (function
      | [ cs; m ] when List.mem [ cs; m ] live_edges ->
        let w = List.assoc [ cs; m ] expected_w in
        Hashtbl.replace expect_hot m
          (w + Option.value (Hashtbl.find_opt expect_hot m) ~default:0)
      | _ -> ())
    ri.Suite.call_edges;
  let expect_hot_l =
    Hashtbl.fold (fun m w acc -> (m, w) :: acc) expect_hot []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    "method hotness = summed edge frequencies" expect_hot_l
    (Weighted.method_hotness_list cf)

(* -- part 4: boolean relations, in lockstep with in-core --------------- *)

(* One side of the lockstep harness: a universe on the given backend
   with four 3-bit physical domains and the two schema families the
   storm shuffles relations between. *)
type side = {
  u : U.t;
  p : Phys.t array;
  xsch : Schema.t;  (* {a@P0, b@P1} *)
  ysch : Schema.t;  (* {b@P2, c@P3} *)
}

let side ~a ~b ~c backend =
  let u = U.create ~backend () in
  let p =
    Array.init 4 (fun i -> Phys.declare u ~name:(Printf.sprintf "P%d" i) ~bits:3)
  in
  let xsch =
    Schema.make [ { Schema.attr = a; phys = p.(0) }; { Schema.attr = b; phys = p.(1) } ]
  in
  let ysch =
    Schema.make [ { Schema.attr = b; phys = p.(2) }; { Schema.attr = c; phys = p.(3) } ]
  in
  { u; p; xsch; ysch }

let random_tuples rand ~size_a ~size_b =
  List.init
    (Random.State.int rand 12)
    (fun _ -> [ Random.State.int rand size_a; Random.State.int rand size_b ])

(* Run the same randomized relational program on the in-core and the
   mtbdd engine, comparing tuple sets and sizes after every operation:
   the terminal-valued engine's boolean projection must track the
   in-core tuple sets operation for operation. *)
let relational_storm ~rounds ~seed =
  let rand = Random.State.make [| seed |] in
  let dom_a = Dom.declare ~name:"DA" ~size:8 () in
  let dom_b = Dom.declare ~name:"DB" ~size:5 () in
  (* non-power-of-two *)
  let a = Attr.declare ~name:"a" ~domain:dom_a in
  let b = Attr.declare ~name:"b" ~domain:dom_a in
  let c = Attr.declare ~name:"c" ~domain:dom_b in
  let si = side ~a ~b ~c `Incore in
  let sm = side ~a ~b ~c `Mtbdd in
  let fresh_x tuples = (R.of_tuples si.u si.xsch tuples, R.of_tuples sm.u sm.xsch tuples) in
  let fresh_y tuples = (R.of_tuples si.u si.ysch tuples, R.of_tuples sm.u sm.ysch tuples) in
  let xs = ref [ fresh_x (random_tuples rand ~size_a:8 ~size_b:8) ] in
  let ys = ref [ fresh_y (random_tuples rand ~size_a:8 ~size_b:5) ] in
  let pick l = List.nth l (Random.State.int rand (List.length l)) in
  let check what (ri, rm) =
    Alcotest.(check (list (list int)))
      (what ^ ": tuples") (R.tuples ri) (R.tuples rm);
    Alcotest.(check int) (what ^ ": size") (R.size ri) (R.size rm);
    Alcotest.(check bool) (what ^ ": emptiness") (R.is_empty ri) (R.is_empty rm)
  in
  for round = 1 to rounds do
    let what = Printf.sprintf "round %d" round in
    let result =
      match Random.State.int rand 9 with
      | 0 ->
        let x1i, x1m = pick !xs and x2i, x2m = pick !xs in
        (R.union x1i x2i, R.union x1m x2m)
      | 1 ->
        let x1i, x1m = pick !xs and x2i, x2m = pick !xs in
        (R.inter x1i x2i, R.inter x1m x2m)
      | 2 ->
        let x1i, x1m = pick !xs and x2i, x2m = pick !xs in
        (R.diff x1i x2i, R.diff x1m x2m)
      | 3 ->
        (* join on b, then drop c and restore the canonical layout *)
        let xi, xm = pick !xs and yi, ym = pick !ys in
        let ji = R.join xi [ b ] yi [ b ] and jm = R.join xm [ b ] ym [ b ] in
        ( R.coerce (R.project_away ji [ c ]) si.xsch,
          R.coerce (R.project_away jm [ c ]) sm.xsch )
      | 4 ->
        (* compose over b: {a,c}; checked, then an x relation stands in *)
        let xi, xm = pick !xs and yi, ym = pick !ys in
        check (what ^ " compose")
          (R.compose xi [ a ] yi [ b ], R.compose xm [ a ] ym [ b ]);
        pick !xs
      | 5 ->
        let xi, xm = pick !xs in
        let v = Random.State.int rand 8 in
        (R.select xi [ (a, v) ], R.select xm [ (a, v) ])
      | 6 ->
        (* copy a into a scratch column, then forget it again *)
        let xi, xm = pick !xs in
        let d = Attr.declare ~name:(Printf.sprintf "d%d" round) ~domain:dom_a in
        ( R.project_away (R.copy ~phys:si.p.(2) xi a ~as_:d) [ d ],
          R.project_away (R.copy ~phys:sm.p.(2) xm a ~as_:d) [ d ] )
      | 7 ->
        (* move a to another physical domain and back: replace both ways *)
        let xi, xm = pick !xs in
        ( R.coerce (R.replace xi [ (a, si.p.(3)) ]) si.xsch,
          R.coerce (R.replace xm [ (a, sm.p.(3)) ]) sm.xsch )
      | _ -> fresh_x (random_tuples rand ~size_a:8 ~size_b:8)
    in
    check what result;
    xs := result :: (if List.length !xs > 6 then List.tl !xs else !xs);
    if Random.State.int rand 3 = 0 then
      ys := fresh_y (random_tuples rand ~size_a:8 ~size_b:5) :: List.tl !ys
  done

let test_relational_storm () = relational_storm ~rounds:150 ~seed:7

(* The five analyses on both engines, every executed IR instruction
   shadow-checked (JEDD_CHECK_IR): the mtbdd run's 0/1-weighted results
   project to the in-core tuple sets. *)
let test_pipeline_differential () =
  let p = Workload.generate Workload.tiny in
  let ri, rm =
    Test_lint.with_check_ir (fun () ->
        (Suite.run_all ~backend:`Incore p, Suite.run_all ~backend:`Mtbdd p))
  in
  let check name f = Alcotest.(check (list (list int))) name (f ri) (f rm) in
  check "subtypes" (fun r -> r.Suite.subtypes);
  check "pt" (fun r -> r.Suite.pt);
  check "resolved" (fun r -> r.Suite.resolved);
  check "call_edges" (fun r -> r.Suite.call_edges);
  check "reachable" (fun r -> r.Suite.reachable);
  check "side_effects" (fun r -> r.Suite.side_effects)

let suite =
  [
    Alcotest.test_case "apply: commutativity, identities, pointwise" `Quick
      test_apply_properties;
    Alcotest.test_case "exist: sum and max aggregation" `Quick
      test_exist_aggregation;
    Alcotest.test_case "boolean lifting round-trips" `Quick
      test_bool_roundtrip;
    Alcotest.test_case "replace and fused relprod" `Quick
      test_replace_and_relprod;
    Alcotest.test_case "GC, caches, terminal gauge" `Quick test_gc_and_stats;
    Alcotest.test_case "weighted relation surface" `Quick
      test_weighted_relations;
    Alcotest.test_case "weighted analyses vs in-core recount" `Quick
      test_weighted_analyses;
    Alcotest.test_case "cross-backend relational storm" `Quick
      test_relational_storm;
    Alcotest.test_case "full pipeline differential" `Quick
      test_pipeline_differential;
  ]
