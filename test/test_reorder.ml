(* Tests for the dynamic variable-order subsystem: the manager's
   adjacent-swap primitive, the structural invariant checker, and the
   engine's transforms (random swaps, sifting, interleave round-trip,
   window search, auto trigger) — all proved semantics-preserving
   against the pre-reorder state. *)

module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Count = Jedd_bdd.Count
module Fdd = Jedd_bdd.Fdd
module Re = Jedd_reorder.Reorder
module U = Jedd_relation.Universe
module Dom = Jedd_relation.Domain
module Phys = Jedd_relation.Physdom
module Attr = Jedd_relation.Attribute
module Schema = Jedd_relation.Schema
module R = Jedd_relation.Relation
module Suite = Jedd_analyses.Suite
module Workload = Jedd_minijava.Workload

let check_clean what m =
  match M.check_invariants m with
  | [] -> ()
  | errs -> Alcotest.failf "%s: %s" what (String.concat "; " errs)

(* Evaluate under an assignment indexed by stable VARIABLE id — the
   semantic reference that is meaningful on both sides of a reorder. *)
let eval_vars m f assignment =
  let rec go f =
    if f = M.zero then false
    else if f = M.one then true
    else
      let v = M.var_at_level m (M.level m f) in
      if assignment.(v) then go (M.high m f) else go (M.low m f)
  in
  go f

let all_assignments n =
  List.init (1 lsl n) (fun code ->
      Array.init n (fun i -> (code lsr i) land 1 = 1))

(* A random function over [nvars] variables, built from seeded value
   cubes so different seeds give different shapes. *)
let random_function m vars seed =
  let st = Random.State.make [| seed |] in
  let f = ref M.zero in
  for _ = 0 to 10 do
    let cube = ref M.one in
    Array.iter
      (fun v ->
        match Random.State.int st 3 with
        | 0 -> cube := Ops.band m !cube (M.var m (M.level_of_var m v))
        | 1 -> cube := Ops.band m !cube (Ops.bnot m (M.var m (M.level_of_var m v)))
        | _ -> ())
      vars;
    f := Ops.bor m !f !cube
  done;
  !f

(* ------------------------------------------------------------------ *)

let test_swap_preserves_semantics () =
  let nvars = 6 in
  for seed = 0 to 9 do
    let m = M.create ~node_capacity:1024 () in
    let vars = Array.init nvars (fun _ -> M.new_var m) in
    let f = M.addref m (random_function m vars seed) in
    let reference =
      List.map (fun a -> eval_vars m f a) (all_assignments nvars)
    in
    let st = Random.State.make [| seed + 100 |] in
    for _ = 1 to 50 do
      M.swap_adjacent m (Random.State.int st (nvars - 1))
    done;
    check_clean "after random swaps" m;
    let after =
      List.map (fun a -> eval_vars m f a) (all_assignments nvars)
    in
    if reference <> after then
      Alcotest.failf "seed %d: function changed under swaps" seed
  done

let test_swap_involutive () =
  let m = M.create ~node_capacity:1024 () in
  let vars = Array.init 5 (fun _ -> M.new_var m) in
  let f = M.addref m (random_function m vars 7) in
  let nodes_before = Count.nodecount m f in
  M.swap_adjacent m 2;
  M.swap_adjacent m 2;
  for v = 0 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "var %d back at its level" v)
      v (M.level_of_var m vars.(v))
  done;
  Alcotest.(check int) "same canonical size" nodes_before
    (Count.nodecount m f);
  check_clean "after double swap" m

let test_swap_keeps_handles_and_refcounts () =
  let m = M.create ~node_capacity:1024 () in
  let vars = Array.init 6 (fun _ -> M.new_var m) in
  let f = M.addref m (random_function m vars 3) in
  let g = M.addref m (M.addref m (random_function m vars 4)) in
  let rc_f = M.refcount m f and rc_g = M.refcount m g in
  M.swap_adjacent m 0;
  M.swap_adjacent m 3;
  Alcotest.(check int) "f refcount survives" rc_f (M.refcount m f);
  Alcotest.(check int) "g refcount survives" rc_g (M.refcount m g);
  (* a GC after the swaps must not collect either root *)
  M.gc m;
  check_clean "after swaps + gc" m;
  Alcotest.(check bool) "f still evaluable" true
    (let a = Array.make 6 true in
     eval_vars m f a || not (eval_vars m f a))

let test_sift_preserves_relation () =
  let u = U.create () in
  let d = Dom.declare ~name:"D" ~size:16 () in
  let p1 = Phys.declare u ~name:"P1" ~bits:4 in
  let p2 = Phys.declare u ~name:"P2" ~bits:4 in
  let sch =
    Schema.make
      [
        { Schema.attr = Attr.declare ~name:"a" ~domain:d; phys = p1 };
        { Schema.attr = Attr.declare ~name:"b" ~domain:d; phys = p2 };
      ]
  in
  let tuples = [ [ 0; 3 ]; [ 1; 1 ]; [ 5; 12 ]; [ 7; 7 ]; [ 15; 0 ] ] in
  let r = R.of_tuples u sch tuples in
  U.reorder u;
  check_clean "after sift" (U.manager u);
  Alcotest.(check (list (list int))) "tuples preserved" tuples (R.tuples r);
  let events = Re.events (U.reorder_engine u) in
  Alcotest.(check bool) "sift pass recorded" true
    (List.exists (fun (e : Re.event) -> e.strategy = "sift") events)

let test_interleave_round_trip () =
  let u = U.create () in
  let m = U.manager u in
  let d = Dom.declare ~name:"D" ~size:256 () in
  (* Contiguous declaration: the equality BDD is exponential in width. *)
  let p1 = Phys.declare u ~name:"A" ~bits:8 in
  let p2 = Phys.declare u ~name:"B" ~bits:8 in
  let eq = M.addref m (Fdd.equality m (Phys.block p1) (Phys.block p2)) in
  let sat () =
    Count.satcount m eq
      ~over:
        (Array.to_list (Phys.levels p1) @ Array.to_list (Phys.levels p2))
  in
  let contiguous_nodes = Count.nodecount m eq in
  let sat_before = sat () in
  Alcotest.(check int) "equality has 256 models" 256 sat_before;
  let engine = U.reorder_engine u in
  Re.interleave engine "A" "B";
  check_clean "after interleave" m;
  let interleaved_nodes = Count.nodecount m eq in
  Alcotest.(check bool)
    (Printf.sprintf "interleaving shrinks equality (%d -> %d)"
       contiguous_nodes interleaved_nodes)
    true
    (interleaved_nodes < contiguous_nodes);
  Alcotest.(check bool) "interleaved equality is linear" true
    (interleaved_nodes <= 3 * 8);
  Alcotest.(check int) "models preserved" sat_before (sat ());
  Re.deinterleave engine "A" "B";
  check_clean "after deinterleave" m;
  Alcotest.(check int) "models preserved after round trip" sat_before (sat ());
  Alcotest.(check int) "contiguous size restored" contiguous_nodes
    (Count.nodecount m eq);
  ignore d

let test_window_preserves_semantics () =
  let u = U.create () in
  let m = U.manager u in
  let d = Dom.declare ~name:"D" ~size:8 () in
  let p1 = Phys.declare u ~name:"W1" ~bits:3 in
  let p2 = Phys.declare u ~name:"W2" ~bits:3 in
  let p3 = Phys.declare u ~name:"W3" ~bits:3 in
  let sch =
    Schema.make
      [
        { Schema.attr = Attr.declare ~name:"x" ~domain:d; phys = p1 };
        { Schema.attr = Attr.declare ~name:"y" ~domain:d; phys = p2 };
        { Schema.attr = Attr.declare ~name:"z" ~domain:d; phys = p3 };
      ]
  in
  let tuples = [ [ 0; 1; 2 ]; [ 3; 3; 3 ]; [ 7; 0; 5 ] ] in
  let r = R.of_tuples u sch tuples in
  let engine = U.reorder_engine u in
  Re.window engine 2;
  Re.window engine 3;
  check_clean "after window search" m;
  Alcotest.(check (list (list int))) "tuples preserved" tuples (R.tuples r)

let test_heterogeneous_interleaved () =
  let u = U.create () in
  let ps = Phys.declare_interleaved u [ ("WIDE", 5); ("NARROW", 2) ] in
  (match ps with
  | [ wide; narrow ] ->
    Alcotest.(check int) "wide keeps 5 bits" 5 (Phys.width wide);
    Alcotest.(check int) "narrow keeps 2 bits" 2 (Phys.width narrow);
    (* MSB-aligned round-robin: wide gets levels 0,2,4,5,6. *)
    Alcotest.(check (array int))
      "wide levels" [| 0; 2; 4; 5; 6 |] (Phys.levels wide);
    Alcotest.(check (array int)) "narrow levels" [| 1; 3 |]
      (Phys.levels narrow)
  | _ -> Alcotest.fail "expected two physdoms");
  let u2 = U.create () in
  match Phys.declare_interleaved ~pad:true u2 [ ("W", 5); ("N", 2) ] with
  | [ w; n ] ->
    Alcotest.(check int) "pad widens wide" 5 (Phys.width w);
    Alcotest.(check int) "pad widens narrow" 5 (Phys.width n)
  | _ -> Alcotest.fail "expected two physdoms"

let test_auto_trigger () =
  let m = M.create ~node_capacity:4096 () in
  let vars = Array.init 8 (fun _ -> M.new_var m) in
  let engine = Re.create m in
  Re.register_block engine ~name:"blk" ~vars;
  Re.install_auto engine ~threshold:16;
  let f = M.addref m (random_function m vars 11) in
  M.checkpoint m;
  Alcotest.(check bool) "trigger fired" true (Re.auto_fired engine > 0);
  Alcotest.(check bool) "pass recorded on manager" true
    (M.reorder_count m > 0);
  check_clean "after auto reorder" m;
  Re.disable_auto engine;
  let fired = Re.auto_fired engine in
  M.checkpoint m;
  Alcotest.(check int) "disabled trigger stays quiet" fired
    (Re.auto_fired engine);
  ignore f

let test_observability () =
  let u = U.create () in
  let d = Dom.declare ~name:"D" ~size:16 () in
  let p1 = Phys.declare u ~name:"P1" ~bits:4 in
  let p2 = Phys.declare u ~name:"P2" ~bits:4 in
  let sch =
    Schema.make
      [
        { Schema.attr = Attr.declare ~name:"a" ~domain:d; phys = p1 };
        { Schema.attr = Attr.declare ~name:"b" ~domain:d; phys = p2 };
      ]
  in
  let r = R.of_tuples u sch [ [ 1; 2 ]; [ 3; 4 ]; [ 9; 9 ] ] in
  let engine = U.reorder_engine u in
  let h = Re.level_histogram engine in
  Alcotest.(check bool) "histogram sees live nodes" true
    (Array.fold_left ( + ) 0 h > 0);
  let attribution = Re.block_attribution engine in
  Alcotest.(check bool) "both blocks attributed" true
    (List.mem_assoc "P1" attribution && List.mem_assoc "P2" attribution);
  ignore r

(* V1/V2 and H1/H2 pushed to opposite ends of the order: every copy
   rule's replace and every join over the pair pays for the spread,
   the worst case §3.3.1 warns about. *)
let bad_physdom_order =
  [ "V1"; "T1"; "T2"; "T3"; "S1"; "M1"; "H1"; "M2"; "V2"; "C1"; "F1"; "H2" ]

let test_suite_fixed_point_stable () =
  let p = Workload.generate Workload.tiny in
  let plain = Suite.run_all p in
  let reordered = Suite.run_all ~reorder:true p in
  Alcotest.(check (list (list int)))
    "points-to fixed point equal" plain.Suite.pt reordered.Suite.pt;
  Alcotest.(check (list (list int)))
    "reachable methods equal" plain.Suite.reachable reordered.Suite.reachable;
  Alcotest.(check (list (list int)))
    "side effects equal" plain.Suite.side_effects
    reordered.Suite.side_effects;
  (* the same points-to solve from a deliberately bad declaration order:
     the optimizer must run, reach the same fixed point and leave the
     manager structurally sound *)
  let module Pt = Jedd_analyses.Pointsto in
  let compiled =
    match
      Jedd_lang.Driver.compile
        [
          ( "PointsTo.jedd",
            Jedd_analyses.Common.preamble ~physdom_order:bad_physdom_order p
            ^ Pt.source );
        ]
    with
    | Ok c -> c
    | Error e -> Alcotest.fail (Jedd_lang.Driver.error_to_string e)
  in
  let solve ~reorder =
    let inst = Jedd_lang.Driver.instantiate compiled in
    Pt.load_facts inst p;
    Pt.run ~reorder inst;
    (Pt.results inst, U.manager (Jedd_lang.Interp.universe inst))
  in
  let bad_off, _ = solve ~reorder:false in
  let bad_on, m = solve ~reorder:true in
  Alcotest.(check (list (list int)))
    "bad order: points-to equal to the good order" plain.Suite.pt bad_off;
  Alcotest.(check (list (list int)))
    "bad order: reordering keeps the fixed point" bad_off bad_on;
  Alcotest.(check bool) "bad order: at least one reorder pass" true
    (M.reorder_count m > 0);
  check_clean "bad order after reordering" m

let suite =
  [
    Alcotest.test_case "random swaps preserve semantics" `Quick
      test_swap_preserves_semantics;
    Alcotest.test_case "adjacent swap is involutive" `Quick
      test_swap_involutive;
    Alcotest.test_case "handles and refcounts survive swaps" `Quick
      test_swap_keeps_handles_and_refcounts;
    Alcotest.test_case "sifting preserves relation tuples" `Quick
      test_sift_preserves_relation;
    Alcotest.test_case "interleave round trip" `Quick
      test_interleave_round_trip;
    Alcotest.test_case "window search preserves semantics" `Quick
      test_window_preserves_semantics;
    Alcotest.test_case "heterogeneous interleaved widths" `Quick
      test_heterogeneous_interleaved;
    Alcotest.test_case "auto trigger at safe points" `Quick
      test_auto_trigger;
    Alcotest.test_case "histogram and block attribution" `Quick
      test_observability;
    Alcotest.test_case "analysis fixed point stable under reorder" `Quick
      test_suite_fixed_point_stable;
  ]
