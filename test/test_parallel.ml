(* The parallel mode that remains: several reader domains sharing one
   frozen manager, as Serve.Pool's workers do.  Each reader runs the
   plain sequential kernels; hash-consing goes through the lock-striped
   unique table and per-domain allocation chunks, memoisation through
   per-domain operation caches.  The readers must rebuild exactly the
   handles pinned before the freeze (hash-consing keeps BDDs
   canonical), agree with a sequential recomputation on scratch they
   create, and leave the manager structurally consistent. *)

module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Replace = Jedd_bdd.Replace
module Count = Jedd_bdd.Count

(* -- Random expression workload (cf. Test_bdd) -------------------------- *)

type expr =
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Diff of expr * expr

let rec gen_expr nvars depth st =
  if depth = 0 then Var (Random.State.int st nvars)
  else
    match Random.State.int st 6 with
    | 0 -> Var (Random.State.int st nvars)
    | 1 -> Not (gen_expr nvars (depth - 1) st)
    | 2 -> And (gen_expr nvars (depth - 1) st, gen_expr nvars (depth - 1) st)
    | 3 -> Or (gen_expr nvars (depth - 1) st, gen_expr nvars (depth - 1) st)
    | 4 -> Xor (gen_expr nvars (depth - 1) st, gen_expr nvars (depth - 1) st)
    | _ -> Diff (gen_expr nvars (depth - 1) st, gen_expr nvars (depth - 1) st)

let rec build m = function
  | Var i -> M.var m i
  | Not e -> Ops.bnot m (build m e)
  | And (a, b) -> Ops.band m (build m a) (build m b)
  | Or (a, b) -> Ops.bor m (build m a) (build m b)
  | Xor (a, b) -> Ops.bxor m (build m a) (build m b)
  | Diff (a, b) -> Ops.bdiff m (build m a) (build m b)

let fresh_manager ?(node_capacity = 4096) nvars =
  let m = M.create ~node_capacity () in
  for _ = 1 to nvars do
    ignore (M.new_var m)
  done;
  m

let no_violations what m =
  Alcotest.(check (list string)) what [] (M.check_invariants m)

(* Run [f i] for i = 0 .. n-1 on n fresh domains, released together so
   their table traffic overlaps, and return the results in domain
   order. *)
let on_domains n f =
  let ready = Atomic.make 0 in
  let spawn i =
    Domain.spawn (fun () ->
        Atomic.incr ready;
        while Atomic.get ready < n do
          Domain.cpu_relax ()
        done;
        f i)
  in
  List.map Domain.join (List.init n spawn)

(* [f] applied to every element of [xs], starting at a different offset
   on each domain so the readers do not march in lockstep. *)
let rotated i xs f =
  let a = Array.of_list xs in
  let n = Array.length a in
  List.init n (fun k ->
      let j = (k + (i * 7)) mod n in
      (j, f a.(j)))

(* Freeze [m], run [read] on [n] domains in parallel mode, and check
   every result against [expect]. *)
let check_readers what m n expect read =
  M.freeze m;
  M.enter_parallel m;
  let got = on_domains n read in
  M.exit_parallel m;
  List.iteri
    (fun d rs ->
      List.iter
        (fun (j, r) ->
          Alcotest.(check int)
            (Printf.sprintf "%s: domain %d of %d, item %d" what d n j)
            expect.(j) r)
        rs)
    got;
  no_violations (what ^ ": invariants") m

(* -- (a) Rebuilt expressions hit the pinned handles --------------------- *)

let test_binops_differential () =
  List.iter
    (fun n ->
      let m = fresh_manager 10 in
      let st = Random.State.make [| 42; n |] in
      let exprs = List.init 25 (fun _ -> gen_expr 10 6 st) in
      let pinned = List.map (fun e -> M.addref m (build m e)) exprs in
      check_readers "binops" m n (Array.of_list pinned) (fun i ->
          rotated i exprs (build m)))
    [ 2; 3; 4 ]

let test_quant_differential () =
  let m = fresh_manager 12 in
  let st = Random.State.make [| 7 |] in
  let pairs =
    List.init 15 (fun _ ->
        (M.addref m (build m (gen_expr 12 6 st)),
         M.addref m (build m (gen_expr 12 6 st))))
  in
  let cube = M.addref m (Quant.varset m [ 1; 4; 7; 10 ]) in
  let expect =
    List.concat_map
      (fun (a, b) ->
        [ M.addref m (Quant.exist m a cube);
          M.addref m (Quant.relprod m a b cube) ])
      pairs
  in
  let ops =
    List.concat_map
      (fun (a, b) ->
        [ (fun () -> Quant.exist m a cube);
          (fun () -> Quant.relprod m a b cube) ])
      pairs
  in
  check_readers "exist/relprod" m 4 (Array.of_list expect) (fun i ->
      rotated i ops (fun op -> op ()))

let test_fused_differential () =
  let m = fresh_manager ~node_capacity:8192 12 in
  let st = Random.State.make [| 19 |] in
  (* an order-preserving shift of the low half onto the high half *)
  let shift = [ (0, 6); (1, 7); (2, 8) ] in
  let perm = Replace.make_perm m shift in
  let cube = M.addref m (Quant.varset m [ 6; 7; 8 ]) in
  let pairs =
    List.init 15 (fun _ ->
        (M.addref m (build m (gen_expr 6 5 st)),
         M.addref m (build m (gen_expr 6 5 st))))
  in
  let expect =
    List.concat_map
      (fun (a, b) ->
        [ M.addref m (Replace.relprod_replace m a b perm cube);
          M.addref m (Replace.replace_exist m b perm M.one) ])
      pairs
  in
  check_readers "fused" m 4 (Array.of_list expect) (fun i ->
      (* readers intern the permutation themselves, concurrently *)
      let p = Replace.make_perm m shift in
      if p != perm then failwith "make_perm did not return the interned value";
      let ops =
        List.concat_map
          (fun (a, b) ->
            [ (fun () -> Replace.relprod_replace m a b p cube);
              (fun () -> Replace.replace_exist m b p M.one) ])
          pairs
      in
      rotated i ops (fun op -> op ()))

(* -- (b) Scratch under pressure equals a sequential recomputation ------- *)

let test_cross_manager () =
  let nvars = 12 in
  let st = Random.State.make [| 3; 14; 15 |] in
  let exprs = List.init 30 (fun _ -> gen_expr nvars 7 st) in
  let over = List.init nvars Fun.id in
  let measure m r = (Count.satcount m r ~over, Count.shape m r) in
  let seq =
    let m = fresh_manager nvars in
    List.map (fun e -> measure m (M.addref m (build m e))) exprs
  in
  (* the smallest table: the readers' scratch must refill chunks and
     grow the table while other domains hash-cons into it.  Every reader
     builds the same expressions in the same order, so they race to
     create the same nodes. *)
  let m = fresh_manager ~node_capacity:1024 nvars in
  ignore (M.addref m (build m (List.hd exprs)));
  M.freeze m;
  let grows = M.grow_count m in
  M.enter_parallel m;
  let got = on_domains 3 (fun _ -> rotated 0 exprs (build m)) in
  M.exit_parallel m;
  let stats = M.par_stats m in
  Alcotest.(check bool) "chunk refills" true (stats.M.par_chunk_refills > 0);
  Alcotest.(check bool) "table grew" true (M.grow_count m > grows);
  Alcotest.(check bool) "three domains" true (stats.M.par_domains >= 3);
  let first = List.hd got in
  List.iteri
    (fun d rs ->
      List.iter
        (fun (j, r) ->
          Alcotest.(check int)
            (Printf.sprintf "domain %d agrees with domain 0 on expr %d" d j)
            (List.assoc j first) r;
          let count, shape = measure m r in
          let count', shape' = List.nth seq j in
          Alcotest.(check int) (Printf.sprintf "satcount of expr %d" j)
            count' count;
          Alcotest.(check (array int)) (Printf.sprintf "shape of expr %d" j)
            shape' shape)
        rs)
    got;
  no_violations "invariants after growth" m

(* -- (c) Invariants at quiescence, across exit and sweeps --------------- *)

let test_invariants_during_parallel () =
  let nvars = 8 in
  let m = fresh_manager ~node_capacity:1024 nvars in
  let st = Random.State.make [| 5 |] in
  let pinned =
    List.init 8 (fun _ -> M.addref m (build m (gen_expr nvars 5 st)))
  in
  let over = List.init nvars Fun.id in
  let counts () = List.map (fun r -> Count.satcount m r ~over) pinned in
  let before = counts () in
  M.freeze m;
  let arena = M.frozen_live_nodes m in
  let scratch seed =
    ignore
      (on_domains 2 (fun i ->
           let st = Random.State.make [| seed; i |] in
           for _ = 1 to 10 do
             ignore (build m (gen_expr nvars 5 st))
           done))
  in
  M.enter_parallel m;
  scratch 1;
  no_violations "quiescent, chunks outstanding" m;
  (* the serve pool's sweep: at quiescence, still in parallel mode *)
  M.frozen_sweep m;
  no_violations "after a sweep in parallel mode" m;
  Alcotest.(check int) "sweep reclaims every scratch node" arena
    (M.live_nodes m);
  scratch 2;
  let held = M.live_nodes m in
  M.exit_parallel m;
  Alcotest.(check bool) "exit returns chunk-held nodes" true
    (M.live_nodes m < held);
  no_violations "after exit_parallel" m;
  M.frozen_sweep m;
  no_violations "after frozen_sweep" m;
  Alcotest.(check int) "arena size restored" arena (M.live_nodes m);
  Alcotest.(check (list int)) "pinned satcounts unchanged" before (counts ())

(* -- (d) Only a frozen manager may enter -------------------------------- *)

let test_rejects_mutable () =
  let m = fresh_manager 4 in
  Alcotest.check_raises "mutable manager"
    (Invalid_argument "Manager.enter_parallel: the manager is not frozen")
    (fun () -> M.enter_parallel m);
  let active () = (M.par_stats m).M.par_active in
  Alcotest.(check bool) "still sequential" false (active ());
  M.freeze m;
  M.enter_parallel m;
  Alcotest.(check bool) "frozen manager enters" true (active ());
  M.exit_parallel m

let suite =
  [
    Alcotest.test_case "binops differential (2-4 readers)" `Quick
      test_binops_differential;
    Alcotest.test_case "exist/relprod differential" `Quick
      test_quant_differential;
    Alcotest.test_case "fused kernels differential" `Quick
      test_fused_differential;
    Alcotest.test_case "cross-manager satcount/shape" `Quick
      test_cross_manager;
    Alcotest.test_case "invariants with live chunks" `Quick
      test_invariants_during_parallel;
    Alcotest.test_case "enter_parallel needs a frozen manager" `Quick
      test_rejects_mutable;
  ]
