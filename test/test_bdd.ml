(* Tests for the ROBDD substrate: algebraic laws, canonicity,
   quantification, replace, counting, enumeration, fdd blocks, GC. *)

module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Replace = Jedd_bdd.Replace
module Count = Jedd_bdd.Count
module Enum = Jedd_bdd.Enum
module Fdd = Jedd_bdd.Fdd
module Transfer = Jedd_bdd.Transfer

let with_man ?(nvars = 8) f =
  let m = M.create ~node_capacity:2048 () in
  let vars = Array.init nvars (fun _ -> M.new_var m) in
  f m (Array.map (M.var m) vars)

(* Evaluate a BDD under a full assignment — the semantic reference all
   property tests compare against. *)
let eval m f assignment =
  let rec go f =
    if f = M.zero then false
    else if f = M.one then true
    else
      let lvl = M.level m f in
      if assignment.(lvl) then go (M.high m f) else go (M.low m f)
  in
  go f

let all_assignments n =
  List.init (1 lsl n) (fun code ->
      Array.init n (fun i -> (code lsr i) land 1 = 1))

(* A small random BDD expression generator for property tests. *)
type expr =
  | Var of int
  | Not of expr
  | And of expr * expr
  | Or of expr * expr
  | Xor of expr * expr
  | Const of bool

let rec gen_expr nvars depth rand =
  if depth = 0 then
    if rand 5 = 0 then Const (rand 2 = 0) else Var (rand nvars)
  else
    match rand 5 with
    | 0 -> Var (rand nvars)
    | 1 -> Not (gen_expr nvars (depth - 1) rand)
    | 2 -> And (gen_expr nvars (depth - 1) rand, gen_expr nvars (depth - 1) rand)
    | 3 -> Or (gen_expr nvars (depth - 1) rand, gen_expr nvars (depth - 1) rand)
    | _ -> Xor (gen_expr nvars (depth - 1) rand, gen_expr nvars (depth - 1) rand)

let rec build m expr =
  match expr with
  | Var i -> M.var m i
  | Not e -> Ops.bnot m (build m e)
  | And (a, b) -> Ops.band m (build m a) (build m b)
  | Or (a, b) -> Ops.bor m (build m a) (build m b)
  | Xor (a, b) -> Ops.bxor m (build m a) (build m b)
  | Const true -> M.one
  | Const false -> M.zero

let rec eval_expr expr assignment =
  match expr with
  | Var i -> assignment.(i)
  | Not e -> not (eval_expr e assignment)
  | And (a, b) -> eval_expr a assignment && eval_expr b assignment
  | Or (a, b) -> eval_expr a assignment || eval_expr b assignment
  | Xor (a, b) -> eval_expr a assignment <> eval_expr b assignment
  | Const b -> b

let expr_gen nvars =
  QCheck.Gen.(
    int_bound 6 >>= fun depth st ->
    gen_expr nvars depth (fun n -> int_bound (n - 1) st))

let arbitrary_expr nvars =
  QCheck.make (expr_gen nvars) ~print:(fun _ -> "<expr>")

(* ------------------------------------------------------------------ *)

let test_terminals () =
  with_man (fun m vars ->
      ignore vars;
      Alcotest.(check bool) "zero is terminal" true (M.is_terminal M.zero);
      Alcotest.(check bool) "one is terminal" true (M.is_terminal M.one);
      Alcotest.(check int) "not zero" M.one (Ops.bnot m M.zero);
      Alcotest.(check int) "not one" M.zero (Ops.bnot m M.one))

let test_hash_consing () =
  with_man (fun m vars ->
      let a = Ops.band m vars.(0) vars.(1) in
      let b = Ops.band m vars.(1) vars.(0) in
      Alcotest.(check int) "AND is canonical" a b;
      let c = Ops.bnot m (Ops.bnot m a) in
      Alcotest.(check int) "double negation is physical identity" a c)

let test_redundancy_rule () =
  with_man (fun m vars ->
      ignore vars;
      Alcotest.(check int) "mk with equal children collapses" M.one
        (M.mk m 0 M.one M.one))

let test_boolean_laws () =
  with_man (fun m vars ->
      let x = vars.(0) and y = vars.(1) and z = vars.(2) in
      Alcotest.(check int) "x & !x = 0" M.zero (Ops.band m x (Ops.bnot m x));
      Alcotest.(check int) "x | !x = 1" M.one (Ops.bor m x (Ops.bnot m x));
      Alcotest.(check int) "de morgan"
        (Ops.bnot m (Ops.band m x y))
        (Ops.bor m (Ops.bnot m x) (Ops.bnot m y));
      Alcotest.(check int) "distribution"
        (Ops.band m x (Ops.bor m y z))
        (Ops.bor m (Ops.band m x y) (Ops.band m x z));
      Alcotest.(check int) "xor via and/or"
        (Ops.bxor m x y)
        (Ops.bor m
           (Ops.band m x (Ops.bnot m y))
           (Ops.band m (Ops.bnot m x) y));
      Alcotest.(check int) "diff = and-not"
        (Ops.bdiff m x y)
        (Ops.band m x (Ops.bnot m y)))

let test_ite () =
  with_man (fun m vars ->
      let f = vars.(0) and g = vars.(1) and h = vars.(2) in
      Alcotest.(check int) "ite decomposition"
        (Ops.ite m f g h)
        (Ops.bor m (Ops.band m f g) (Ops.band m (Ops.bnot m f) h));
      Alcotest.(check int) "ite true branch" g (Ops.ite m M.one g h);
      Alcotest.(check int) "ite false branch" h (Ops.ite m M.zero g h))

let test_cube_restrict () =
  with_man (fun m vars ->
      let f = Ops.band m vars.(0) (Ops.bor m vars.(1) vars.(2)) in
      let r = Ops.restrict m f [ (0, true); (1, false) ] in
      Alcotest.(check int) "restrict x0=1,x1=0 leaves x2" vars.(2) r;
      let c = Ops.cube m [ (0, true); (2, false) ] in
      Alcotest.(check int) "cube evaluates correctly"
        (Ops.band m vars.(0) (Ops.bnot m vars.(2)))
        c)

let test_exist () =
  with_man (fun m vars ->
      let f = Ops.band m vars.(0) vars.(1) in
      let cube = Quant.varset m [ 0 ] in
      Alcotest.(check int) "exists x0. x0&x1 = x1" vars.(1)
        (Quant.exist m f cube);
      Alcotest.(check int) "forall x0. x0&x1 = 0" M.zero
        (Quant.forall m f cube);
      let g = Ops.bor m vars.(0) vars.(1) in
      Alcotest.(check int) "exists x0. x0|x1 = 1" M.one
        (Quant.exist m g cube))

let test_relprod_equals_and_exist () =
  with_man (fun m vars ->
      let f = Ops.bor m (Ops.band m vars.(0) vars.(1)) vars.(2) in
      let g = Ops.bor m (Ops.band m vars.(1) vars.(3)) (Ops.bnot m vars.(0)) in
      let cube = Quant.varset m [ 1; 3 ] in
      Alcotest.(check int) "relprod = exist of and"
        (Quant.exist m (Ops.band m f g) cube)
        (Quant.relprod m f g cube))

let test_replace_swap () =
  with_man (fun m vars ->
      (* f = x0 & !x1; swapping 0<->1 gives !x0 & x1 *)
      let f = Ops.band m vars.(0) (Ops.bnot m vars.(1)) in
      let p = Replace.make_perm m [ (0, 1); (1, 0) ] in
      let expected = Ops.band m (Ops.bnot m vars.(0)) vars.(1) in
      Alcotest.(check int) "swap x0<->x1" expected (Replace.replace m f p))

let test_replace_move () =
  with_man (fun m vars ->
      let f = Ops.band m vars.(0) vars.(1) in
      let p = Replace.make_perm m [ (0, 4); (1, 5) ] in
      let expected = Ops.band m vars.(4) vars.(5) in
      Alcotest.(check int) "move {0,1} -> {4,5}" expected
        (Replace.replace m f p))

let test_replace_distant_swap () =
  with_man (fun m vars ->
      let f = Ops.bor m vars.(0) (Ops.band m vars.(3) vars.(5)) in
      let p = Replace.make_perm m [ (0, 5); (5, 0) ] in
      let expected = Ops.bor m vars.(5) (Ops.band m vars.(3) vars.(0)) in
      Alcotest.(check int) "swap distant levels" expected
        (Replace.replace m f p))

let test_satcount () =
  with_man (fun m vars ->
      let f = Ops.bor m vars.(0) vars.(1) in
      Alcotest.(check int) "count x0|x1 over 2 vars" 3
        (Count.satcount m f ~over:[ 0; 1 ]);
      Alcotest.(check int) "count x0|x1 over 3 vars" 6
        (Count.satcount m f ~over:[ 0; 1; 2 ]);
      Alcotest.(check int) "count 1 over 3 vars" 8
        (Count.satcount m M.one ~over:[ 0; 1; 2 ]);
      Alcotest.(check int) "count 0" 0 (Count.satcount m M.zero ~over:[ 0 ]);
      Alcotest.check_raises "depends outside over"
        (Invalid_argument
           "Count.satcount: BDD depends on a variable outside ~over")
        (fun () -> ignore (Count.satcount m f ~over:[ 0 ])))

(* A copy through a monotone level map with gaps (0, 2, 4 -> 1, 5, 9)
   makes no cache lookup, agrees with its source on every assignment and
   shares what its sources share; an unmapped level and a map that
   breaks the order or leaves the destination are refused. *)
let test_transfer () =
  with_man (fun m vars ->
      let f = Ops.bor m (Ops.band m vars.(0) vars.(2)) vars.(4) in
      let g = Ops.band m vars.(2) (Ops.bnot m vars.(4)) in
      let dst = M.create () in
      for _ = 1 to 12 do
        ignore (M.new_var dst)
      done;
      let levels = [| 1; -1; 5; -1; 9 |] in
      let tr = Transfer.create ~src:m ~dst ~levels in
      let before = M.cache_totals m in
      let f' = Transfer.copy tr f and g' = Transfer.copy tr g in
      Alcotest.(check bool) "no cache lookups in the source" true
        (M.cache_totals m = before);
      List.iter
        (fun code ->
          let bit i = (code lsr i) land 1 = 1 in
          let a = Array.make 8 false and b = Array.make 12 false in
          List.iteri
            (fun i l ->
              a.(l) <- bit i;
              b.(levels.(l)) <- bit i)
            [ 0; 2; 4 ];
          Alcotest.(check bool) "f agrees" (eval m f a) (eval dst f' b);
          Alcotest.(check bool) "g agrees" (eval m g a) (eval dst g' b))
        (List.init 8 Fun.id);
      Alcotest.(check int) "shared nodes"
        (Count.nodecount_many m [ f; g ])
        (Count.nodecount_many dst [ f'; g' ]);
      Alcotest.check_raises "unmapped level" (Transfer.Unmapped_level 1)
        (fun () ->
          ignore (Transfer.copy (Transfer.create ~src:m ~dst ~levels) vars.(1)));
      List.iter
        (fun levels ->
          match Transfer.create ~src:m ~dst ~levels with
          | _ -> Alcotest.fail "bad level map accepted"
          | exception Invalid_argument _ -> ())
        [ [| 3; 2 |]; [| 0; 12 |] ])

let test_nodecount_shape () =
  with_man (fun m vars ->
      let f = Ops.band m vars.(0) (Ops.band m vars.(1) vars.(2)) in
      Alcotest.(check int) "chain of 3" 3 (Count.nodecount m f);
      let shape = Count.shape m f in
      Alcotest.(check (array int)) "one node per level"
        [| 1; 1; 1; 0; 0; 0; 0; 0 |]
        shape)

let test_enum () =
  with_man (fun m vars ->
      let f = Ops.bor m (Ops.band m vars.(0) vars.(1)) (Ops.bnot m vars.(0)) in
      let collected = ref [] in
      Enum.iter_assignments m f ~levels:[| 0; 1 |] (fun values ->
          collected := Array.to_list values :: !collected);
      let sorted = List.sort compare !collected in
      Alcotest.(check (list (list bool)))
        "assignments of (x0&x1)|!x0"
        [ [ false; false ]; [ false; true ]; [ true; true ] ]
        sorted)

let test_enum_dont_care () =
  with_man (fun m vars ->
      let f = vars.(1) in
      let count = ref 0 in
      Enum.iter_assignments m f ~levels:[| 0; 1; 2 |] (fun _ -> incr count);
      Alcotest.(check int) "don't-cares expanded" 4 !count)

let test_fdd_basics () =
  let m = M.create () in
  let b = Fdd.extdomain m 10 in
  Alcotest.(check int) "10 values need 4 bits" 4 (Fdd.width b);
  let v3 = Fdd.ithvar m b 3 in
  let v7 = Fdd.ithvar m b 7 in
  Alcotest.(check bool) "distinct values disjoint" true
    (Ops.band m v3 v7 = M.zero);
  let union = Ops.bor m v3 v7 in
  Alcotest.(check int) "two tuples" 2
    (Count.satcount m union ~over:(Array.to_list (Fdd.levels b)));
  Alcotest.(check int) "of_values builds the same node" union
    (Fdd.of_values m [| b |] [ [ 7 ]; [ 3 ]; [ 7 ] ])

let test_fdd_equality_and_move () =
  let m = M.create () in
  let b1 = Fdd.extdomain m 8 in
  let b2 = Fdd.extdomain m 8 in
  let eq = Fdd.equality m b1 b2 in
  Alcotest.(check int) "equality relation has 8 tuples" 8
    (Count.satcount m eq
       ~over:
         (Array.to_list (Fdd.levels b1) @ Array.to_list (Fdd.levels b2)));
  let v5 = Fdd.ithvar m b1 5 in
  let moved =
    Replace.replace m v5 (Replace.make_perm m (Fdd.perm_pairs b1 b2))
  in
  let decoded = ref [] in
  Fdd.iter_values m [| b2 |] moved (fun v -> decoded := v.(0) :: !decoded);
  Alcotest.(check (list int)) "moved value decodes as 5" [ 5 ] !decoded

let test_fdd_interleaved () =
  let m = M.create () in
  match Fdd.extdomains_interleaved m [ 16; 16 ] with
  | [ b1; b2 ] ->
    let l1 = Fdd.levels b1 and l2 = Fdd.levels b2 in
    Alcotest.(check (array int)) "b1 levels" [| 0; 2; 4; 6 |] l1;
    Alcotest.(check (array int)) "b2 levels" [| 1; 3; 5; 7 |] l2;
    let eq = Fdd.equality m b1 b2 in
    Alcotest.(check bool) "equality BDD is small" true
      (Count.nodecount m eq <= 3 * 4)
  | _ -> Alcotest.fail "expected two blocks"

(* Blocks of different widths keep their widths; the interleave is
   MSB-aligned round-robin, the narrow block dropping out once spent. *)
let test_fdd_interleaved_widths () =
  let m = M.create () in
  match Fdd.extdomains_interleaved m [ 32; 4 ] with
  | [ wide; narrow ] ->
    Alcotest.(check int) "wide keeps 5 bits" 5 (Fdd.width wide);
    Alcotest.(check int) "narrow keeps 2 bits" 2 (Fdd.width narrow);
    Alcotest.(check (array int)) "wide levels" [| 0; 2; 4; 5; 6 |]
      (Fdd.levels wide);
    Alcotest.(check (array int)) "narrow levels" [| 1; 3 |]
      (Fdd.levels narrow)
  | _ -> Alcotest.fail "expected two blocks"

let test_gc_keeps_referenced () =
  let m = M.create ~node_capacity:1024 () in
  let v = Array.init 6 (fun _ -> M.new_var m) in
  let f = ref M.one in
  for i = 0 to 5 do
    f := Ops.band m !f (M.var m v.(i))
  done;
  let f = M.addref m !f in
  let before = Count.nodecount m f in
  for i = 0 to 100 do
    ignore (Ops.bxor m (M.var m v.(i mod 6)) (M.var m v.((i + 1) mod 6)))
  done;
  M.gc m;
  Alcotest.(check int) "referenced BDD survives GC" before
    (Count.nodecount m f);
  Alcotest.(check int) "still the full cube" 1
    (Count.satcount m f ~over:(List.init 6 (fun i -> i)))

let test_gc_collects_garbage () =
  let m = M.create ~node_capacity:1024 () in
  let v = Array.init 6 (fun _ -> M.new_var m) in
  for i = 0 to 200 do
    ignore
      (Ops.band m
         (M.var m v.(i mod 6))
         (Ops.bor m (M.var m v.((i + 1) mod 6)) (M.var m v.((i + 2) mod 6))))
  done;
  let live_before = M.live_nodes m in
  M.gc m;
  Alcotest.(check bool) "GC reclaims unreferenced nodes" true
    (M.live_nodes m < live_before)

let test_growth () =
  let m = M.create ~node_capacity:1024 () in
  let nv = 14 in
  let v = Array.init nv (fun _ -> M.new_var m) in
  let f = ref M.zero in
  for i = 0 to nv - 1 do
    f := Ops.bxor m !f (M.var m v.(i))
  done;
  let g = ref M.one in
  for i = 0 to nv - 2 do
    g := Ops.bor m !g (Ops.band m (M.var m v.(i)) (M.var m v.(i + 1)))
  done;
  Alcotest.(check bool) "survived growth" true (M.live_nodes m > 0);
  Alcotest.(check int) "xor chain counts half the space"
    (1 lsl (nv - 1))
    (Count.satcount m !f ~over:(List.init nv (fun i -> i)))

(* Frozen serving: expressions rebuilt after the freeze hash-cons to
   the pinned handles, kernels memoise as before, scratch survives [gc]
   (a no-op on a frozen manager), [frozen_sweep] reclaims exactly the
   scratch, leaving the pinned arena, and no variable can be added. *)
let test_frozen_sweep () =
  let nvars = 8 in
  let m = M.create ~node_capacity:1024 () in
  for _ = 1 to nvars do
    ignore (M.new_var m)
  done;
  let st = Random.State.make [| 5 |] in
  let rand n = Random.State.int st n in
  let exprs = List.init 8 (fun _ -> gen_expr nvars 5 rand) in
  let pinned = List.map (fun e -> M.addref m (build m e)) exprs in
  let cube = M.addref m (Quant.varset m [ 1; 4; 6 ]) in
  let quant () =
    let g = List.hd pinned in
    List.concat_map
      (fun r -> [ Quant.exist m r cube; Quant.relprod m r g cube ])
      pinned
  in
  let quantified = List.map (M.addref m) (quant ()) in
  let over = List.init nvars Fun.id in
  let counts () = List.map (fun r -> Count.satcount m r ~over) pinned in
  let before = counts () in
  M.freeze m;
  let arena = M.frozen_live_nodes m in
  Alcotest.(check int) "freeze compacts to the arena" arena (M.live_nodes m);
  (match M.new_var m with
  | _ -> Alcotest.fail "new_var on a frozen manager succeeded"
  | exception M.Frozen _ -> ());
  Alcotest.(check int) "no variable added" nvars (M.num_vars m);
  Alcotest.(check (list int)) "rebuilt expressions are the pinned handles"
    pinned (List.map (build m) exprs);
  Alcotest.(check (list int)) "exist/relprod agree after the freeze"
    quantified (quant ());
  (* the freeze collected the unpinned variable nodes, so [build]'s
     [M.var] calls hash-cons fresh ones *)
  for _ = 1 to 20 do
    ignore (build m (gen_expr nvars 5 rand))
  done;
  let held = M.live_nodes m in
  Alcotest.(check bool) "scratch allocated" true (held > arena);
  Alcotest.(check (list string)) "invariants with scratch" []
    (M.check_invariants m);
  M.gc m;
  Alcotest.(check int) "gc reclaims nothing" held (M.live_nodes m);
  M.frozen_sweep m;
  Alcotest.(check int) "sweep restores the arena" arena (M.live_nodes m);
  Alcotest.(check int) "one sweep counted" 1 (M.frozen_sweep_count m);
  Alcotest.(check (list string)) "invariants after the sweep" []
    (M.check_invariants m);
  Alcotest.(check (list int)) "pinned satcounts unchanged" before (counts ())

(* ---------------- operation cache and fused kernels ---------------- *)

let total_activity stats =
  List.fold_left
    (fun acc (s : M.cache_stat) -> acc + s.hits + s.misses + s.stores)
    0 stats

let test_out_of_nodes () =
  let m = M.create ~node_capacity:1024 ~node_limit:1024 () in
  for _ = 1 to 24 do
    ignore (M.new_var m)
  done;
  let rand = Random.State.make [| 11 |] in
  let random_cube () =
    let levels = Array.init 24 Fun.id in
    for i = 23 downto 1 do
      let j = Random.State.int rand (i + 1) in
      let t = levels.(i) in
      levels.(i) <- levels.(j);
      levels.(j) <- t
    done;
    Ops.cube m
      (List.init 8 (fun i -> (levels.(i), Random.State.bool rand)))
  in
  let raised = ref false in
  (try
     let acc = ref (M.addref m M.zero) in
     for _ = 1 to 5000 do
       let acc' = M.addref m (Ops.bor m !acc (random_cube ())) in
       M.delref m !acc;
       acc := acc'
     done
   with M.Out_of_nodes -> raised := true);
  Alcotest.(check bool) "budget exceeded raises" true !raised;
  (* the manager survives: roots, refcounts and fresh work are fine *)
  let x = Ops.band m (M.var m 0) (M.var m 1) in
  Alcotest.(check int) "manager usable after Out_of_nodes" 1
    (Count.satcount m x ~over:[ 0; 1 ])

let test_cache_stats_api () =
  let m = M.create ~node_capacity:1024 () in
  let v = Array.init 4 (fun _ -> M.new_var m) in
  ignore (Ops.band m (M.var m v.(0)) (M.var m v.(1)));
  let stats = M.cache_stats m in
  Alcotest.(check bool) "tags are named" true
    (List.for_all (fun (s : M.cache_stat) -> s.name <> "") stats);
  Alcotest.(check bool) "activity recorded" true (total_activity stats > 0);
  let and_stat =
    List.find (fun (s : M.cache_stat) -> s.name = "and") stats
  in
  Alcotest.(check bool) "and kernel stored its result" true
    (and_stat.stores > 0)

let test_cache_stats_monotone_across_gc () =
  let m = M.create ~node_capacity:1024 () in
  let v = Array.init 6 (fun _ -> M.new_var m) in
  ignore (Ops.band m (M.var m v.(0)) (Ops.bor m (M.var m v.(1)) (M.var m v.(2))));
  let before = M.cache_stats m in
  M.gc m;
  (* GC invalidates entries (generation bump) but must never reset the
     statistics counters. *)
  let after = M.cache_stats m in
  List.iter2
    (fun (b : M.cache_stat) (a : M.cache_stat) ->
      Alcotest.(check bool)
        (Printf.sprintf "tag %s monotone across gc" b.name)
        true
        (a.hits >= b.hits && a.misses >= b.misses && a.stores >= b.stores
        && a.evictions >= b.evictions))
    before after;
  ignore (Ops.band m (M.var m v.(3)) (M.var m v.(4)));
  Alcotest.(check bool) "counters keep counting after gc" true
    (total_activity (M.cache_stats m) > total_activity after)

let test_cache_survives_grow () =
  let m = M.create ~node_capacity:1024 () in
  let v = Array.init 4 (fun _ -> M.new_var m) in
  let f = Ops.bor m (M.var m v.(0)) (M.var m v.(1)) in
  let g = Ops.bor m (M.var m v.(2)) (M.var m v.(3)) in
  let r1 = Ops.band m f g in
  let hits_before =
    (List.find (fun (s : M.cache_stat) -> s.name = "and") (M.cache_stats m))
      .hits
  in
  (* Force node-table growth with cache-neutral allocations (Ops.cube
     builds through mk only): ithvar cubes are all distinct. *)
  let b = Fdd.extdomain_bits m 11 in
  for value = 0 to 1500 do
    ignore (Fdd.ithvar m b value)
  done;
  Alcotest.(check bool) "the table grew" true (M.grow_count m > 0);
  let r2 = Ops.band m f g in
  Alcotest.(check int) "same result after growth" r1 r2;
  let hits_after =
    (List.find (fun (s : M.cache_stat) -> s.name = "and") (M.cache_stats m))
      .hits
  in
  Alcotest.(check bool) "entry survived growth: repeat lookup hits" true
    (hits_after > hits_before)

let test_cache_gc_invalidates_entries () =
  let m = M.create ~node_capacity:1024 () in
  let v = Array.init 4 (fun _ -> M.new_var m) in
  let f = M.addref m (Ops.bor m (M.var m v.(0)) (M.var m v.(1))) in
  let g = M.addref m (Ops.bor m (M.var m v.(2)) (M.var m v.(3))) in
  ignore (Ops.band m f g);
  let stat () =
    List.find (fun (s : M.cache_stat) -> s.name = "and") (M.cache_stats m)
  in
  let before = stat () in
  M.gc m;
  ignore (Ops.band m f g);
  let after = stat () in
  Alcotest.(check bool) "entry invalidated by gc: recomputed" true
    (after.misses > before.misses);
  ignore (Ops.band m f g);
  let again = stat () in
  Alcotest.(check bool) "and cached again after recompute" true
    (again.hits > after.hits)

let test_relprod_replace_block_move () =
  (* f over {0,1,4,5}; g over {2,3}; move g's block {2,3} onto {0,1}
     (order-preserving): the fused path must run, not the fallback. *)
  with_man ~nvars:6 (fun m vars ->
      let f =
        Ops.band m
          (Ops.bor m vars.(0) vars.(4))
          (Ops.bor m vars.(1) vars.(5))
      in
      let g = Ops.band m vars.(2) (Ops.bnot m vars.(3)) in
      let p = Replace.make_perm m [ (2, 0); (3, 1) ] in
      let cube = Quant.varset m [ 0; 1 ] in
      let fused_before, _ = Replace.fused_stats () in
      let got = Replace.relprod_replace m f g p cube in
      let fused_after, _ = Replace.fused_stats () in
      let expected = Quant.relprod m f (Replace.replace m g p) cube in
      Alcotest.(check int) "fused relprod_replace = pipeline" expected got;
      Alcotest.(check bool) "single-recursion path taken" true
        (fused_after > fused_before);
      (* terminal cube degenerates to the fused conjunction *)
      let got_band = Replace.relprod_replace m f g p M.one in
      let expected_band = Ops.band m f (Replace.replace m g p) in
      Alcotest.(check int) "fused band_replace = pipeline" expected_band
        got_band)

let test_relprod_replace_fallback () =
  (* Swapping two distant variables both present in g is not
     order-preserving along g's edges: the kernel must fall back and
     still agree with the pipeline. *)
  with_man ~nvars:6 (fun m vars ->
      let f = Ops.bor m vars.(1) vars.(4) in
      let g = Ops.band m vars.(0) (Ops.bor m vars.(2) vars.(5)) in
      let p = Replace.make_perm m [ (0, 5); (5, 0) ] in
      let cube = Quant.varset m [ 2 ] in
      let _, fallback_before = Replace.fused_stats () in
      let got = Replace.relprod_replace m f g p cube in
      let _, fallback_after = Replace.fused_stats () in
      let expected = Quant.relprod m f (Replace.replace m g p) cube in
      Alcotest.(check int) "fallback relprod_replace = pipeline" expected got;
      Alcotest.(check bool) "fallback path taken" true
        (fallback_after > fallback_before))

let test_replace_exist_block_move () =
  with_man ~nvars:6 (fun m vars ->
      let f =
        Ops.band m
          (Ops.bor m vars.(0) vars.(2))
          (Ops.bor m vars.(3) (Ops.bnot m vars.(5)))
      in
      let p = Replace.make_perm m [ (2, 4) ] in
      let cube = Quant.varset m [ 0; 3 ] in
      let got = Replace.replace_exist m f p cube in
      let expected = Replace.replace m (Quant.exist m f cube) p in
      Alcotest.(check int) "fused replace_exist = pipeline" expected got)

(* ---------------- property-based tests ---------------------------- *)

let nvars_prop = 5

let prop_build_matches_semantics =
  QCheck.Test.make ~count:300 ~name:"BDD agrees with boolean semantics"
    (arbitrary_expr nvars_prop) (fun expr ->
      with_man ~nvars:nvars_prop (fun m _ ->
          let f = build m expr in
          List.for_all
            (fun assignment -> eval m f assignment = eval_expr expr assignment)
            (all_assignments nvars_prop)))

let prop_canonicity =
  QCheck.Test.make ~count:300
    ~name:"semantically equal expressions build the same node"
    (QCheck.pair (arbitrary_expr nvars_prop) (arbitrary_expr nvars_prop))
    (fun (e1, e2) ->
      with_man ~nvars:nvars_prop (fun m _ ->
          let f1 = build m e1 and f2 = build m e2 in
          let sem_equal =
            List.for_all
              (fun a -> eval_expr e1 a = eval_expr e2 a)
              (all_assignments nvars_prop)
          in
          (f1 = f2) = sem_equal))

(* [~over] is a random superset of the support (the variables whose
   flip changes the value somewhere), levels past the manager's last
   variable included, passed unsorted and with duplicates.  The
   brute-force count enumerates the assignments of the distinct [over]
   levels, every other variable false (f reads none of them). *)
let prop_satcount_matches_enumeration =
  QCheck.Test.make ~count:200 ~name:"satcount = brute-force count"
    QCheck.(
      triple (arbitrary_expr nvars_prop)
        (small_list (int_bound (nvars_prop + 1)))
        int)
    (fun (expr, extra, seed) ->
      with_man ~nvars:nvars_prop (fun m _ ->
          let f = build m expr in
          let support =
            List.filter
              (fun v ->
                List.exists
                  (fun a ->
                    let b = Array.copy a in
                    b.(v) <- not b.(v);
                    eval_expr expr a <> eval_expr expr b)
                  (all_assignments nvars_prop))
              (List.init nvars_prop Fun.id)
          in
          let rng = Random.State.make [| seed |] in
          let over =
            support @ extra @ support
            |> List.map (fun l -> (Random.State.bits rng, l))
            |> List.sort compare |> List.map snd
          in
          let levels = List.sort_uniq compare over in
          let satisfies code =
            let a = Array.make nvars_prop false in
            List.iteri
              (fun i l ->
                if l < nvars_prop then a.(l) <- (code lsr i) land 1 = 1)
              levels;
            eval_expr expr a
          in
          let brute =
            List.length
              (List.filter satisfies
                 (List.init (1 lsl List.length levels) Fun.id))
          in
          Count.satcount m f ~over = brute))

let prop_exist_semantics =
  QCheck.Test.make ~count:200 ~name:"exists quantification semantics"
    (QCheck.pair (arbitrary_expr nvars_prop)
       (QCheck.int_bound (nvars_prop - 1)))
    (fun (expr, qvar) ->
      with_man ~nvars:nvars_prop (fun m _ ->
          let f = build m expr in
          let ex = Quant.exist m f (Quant.varset m [ qvar ]) in
          List.for_all
            (fun a ->
              let a0 = Array.copy a and a1 = Array.copy a in
              a0.(qvar) <- false;
              a1.(qvar) <- true;
              eval m ex a = (eval m f a0 || eval m f a1))
            (all_assignments nvars_prop)))

let prop_relprod_matches =
  QCheck.Test.make ~count:150 ~name:"relprod = exist(and)"
    (QCheck.triple (arbitrary_expr nvars_prop) (arbitrary_expr nvars_prop)
       (QCheck.int_bound (nvars_prop - 1)))
    (fun (e1, e2, qvar) ->
      with_man ~nvars:nvars_prop (fun m _ ->
          let f = build m e1 and g = build m e2 in
          let cube = Quant.varset m [ qvar; (qvar + 1) mod nvars_prop ] in
          Quant.relprod m f g cube = Quant.exist m (Ops.band m f g) cube))

let prop_replace_roundtrip =
  QCheck.Test.make ~count:150 ~name:"replace there-and-back is identity"
    (arbitrary_expr 3) (fun expr ->
      with_man ~nvars:6 (fun m _ ->
          let f = build m expr in
          let fwd = Replace.make_perm m [ (0, 3); (1, 4); (2, 5) ] in
          let bwd = Replace.make_perm m [ (3, 0); (4, 1); (5, 2) ] in
          Replace.replace m (Replace.replace m f fwd) bwd = f))

let prop_enum_complete =
  QCheck.Test.make ~count:150
    ~name:"enumeration is complete and duplicate-free"
    (arbitrary_expr nvars_prop) (fun expr ->
      with_man ~nvars:nvars_prop (fun m _ ->
          let f = build m expr in
          let seen = Hashtbl.create 64 in
          let ok = ref true in
          Enum.iter_assignments m f
            ~levels:(Array.init nvars_prop (fun i -> i))
            (fun values ->
              let key = Array.to_list values in
              if Hashtbl.mem seen key then ok := false;
              Hashtbl.add seen key ());
          !ok
          && List.for_all
               (fun a ->
                 let key =
                   Array.to_list (Array.init nvars_prop (fun i -> a.(i)))
                 in
                 Hashtbl.mem seen key = eval_expr expr a)
               (all_assignments nvars_prop)))

(* Random (partial) permutations over [n] levels: draw a full random
   permutation of the levels, then keep a random subset of its pairs.
   Sources and targets stay distinct by construction; the result ranges
   from identity through order-preserving block moves to distant swaps
   (which must take the kernels' fallback path). *)
let gen_perm_pairs n =
  QCheck.Gen.(
    list_repeat n (int_bound 1_000_000) >>= fun keys ->
    int_bound ((1 lsl n) - 1) >>= fun mask ->
    let targets =
      List.combine keys (List.init n (fun i -> i))
      |> List.sort compare |> List.map snd
    in
    return
      (List.concat
         (List.mapi
            (fun s t -> if mask land (1 lsl s) <> 0 then [ (s, t) ] else [])
            targets)))

let levels_of_mask n mask =
  List.filter (fun l -> mask land (1 lsl l) <> 0) (List.init n (fun i -> i))

let show_pairs pairs =
  String.concat ";"
    (List.map (fun (s, d) -> Printf.sprintf "%d->%d" s d) pairs)

let nvars_fused = 6

let arbitrary_fused_binop_case =
  QCheck.make
    ~print:(fun (_, _, pairs, mask) ->
      Printf.sprintf "<expr,expr> perm=[%s] cube_mask=%d" (show_pairs pairs)
        mask)
    QCheck.Gen.(
      expr_gen nvars_fused >>= fun e1 ->
      expr_gen nvars_fused >>= fun e2 ->
      gen_perm_pairs nvars_fused >>= fun pairs ->
      int_bound ((1 lsl nvars_fused) - 1) >>= fun mask ->
      return (e1, e2, pairs, mask))

let arbitrary_fused_unop_case =
  QCheck.make
    ~print:(fun (_, pairs, mask) ->
      Printf.sprintf "<expr> perm=[%s] cube_mask=%d" (show_pairs pairs) mask)
    QCheck.Gen.(
      expr_gen nvars_fused >>= fun e ->
      gen_perm_pairs nvars_fused >>= fun pairs ->
      int_bound ((1 lsl nvars_fused) - 1) >>= fun mask ->
      return (e, pairs, mask))

let prop_relprod_replace_equiv =
  QCheck.Test.make ~count:400
    ~name:"relprod_replace = relprod against materialised replace"
    arbitrary_fused_binop_case (fun (e1, e2, pairs, mask) ->
      with_man ~nvars:nvars_fused (fun m _ ->
          let f = build m e1 and g = build m e2 in
          let p = Replace.make_perm m pairs in
          let cube = Quant.varset m (levels_of_mask nvars_fused mask) in
          Replace.relprod_replace m f g p cube
          = Quant.relprod m f (Replace.replace m g p) cube))

let prop_replace_exist_equiv =
  QCheck.Test.make ~count:400
    ~name:"replace_exist = replace after exist"
    arbitrary_fused_unop_case (fun (e, pairs, mask) ->
      with_man ~nvars:nvars_fused (fun m _ ->
          let f = build m e in
          let p = Replace.make_perm m pairs in
          let cube = Quant.varset m (levels_of_mask nvars_fused mask) in
          Replace.replace_exist m f p cube
          = Replace.replace m (Quant.exist m f cube) p))

let qcheck_cases =
  List.map
    (QCheck_alcotest.to_alcotest ~verbose:false)
    [
      prop_build_matches_semantics;
      prop_canonicity;
      prop_satcount_matches_enumeration;
      prop_exist_semantics;
      prop_relprod_matches;
      prop_replace_roundtrip;
      prop_enum_complete;
      prop_relprod_replace_equiv;
      prop_replace_exist_equiv;
    ]

let suite =
  [
    Alcotest.test_case "terminals" `Quick test_terminals;
    Alcotest.test_case "hash consing" `Quick test_hash_consing;
    Alcotest.test_case "redundancy rule" `Quick test_redundancy_rule;
    Alcotest.test_case "boolean laws" `Quick test_boolean_laws;
    Alcotest.test_case "ite" `Quick test_ite;
    Alcotest.test_case "cube and restrict" `Quick test_cube_restrict;
    Alcotest.test_case "exist/forall" `Quick test_exist;
    Alcotest.test_case "relprod" `Quick test_relprod_equals_and_exist;
    Alcotest.test_case "replace swap" `Quick test_replace_swap;
    Alcotest.test_case "replace move" `Quick test_replace_move;
    Alcotest.test_case "replace distant swap" `Quick test_replace_distant_swap;
    Alcotest.test_case "satcount" `Quick test_satcount;
    Alcotest.test_case "transfer" `Quick test_transfer;
    Alcotest.test_case "nodecount and shape" `Quick test_nodecount_shape;
    Alcotest.test_case "enumeration" `Quick test_enum;
    Alcotest.test_case "enumeration don't-cares" `Quick test_enum_dont_care;
    Alcotest.test_case "fdd basics" `Quick test_fdd_basics;
    Alcotest.test_case "fdd equality and move" `Quick test_fdd_equality_and_move;
    Alcotest.test_case "fdd interleaved" `Quick test_fdd_interleaved;
    Alcotest.test_case "fdd interleaved mixed widths" `Quick
      test_fdd_interleaved_widths;
    Alcotest.test_case "gc keeps referenced" `Quick test_gc_keeps_referenced;
    Alcotest.test_case "gc collects garbage" `Quick test_gc_collects_garbage;
    Alcotest.test_case "table growth" `Quick test_growth;
    Alcotest.test_case "node limit raises Out_of_nodes" `Quick
      test_out_of_nodes;
    Alcotest.test_case "cache stats api" `Quick test_cache_stats_api;
    Alcotest.test_case "cache stats monotone across gc" `Quick
      test_cache_stats_monotone_across_gc;
    Alcotest.test_case "cache survives grow" `Quick test_cache_survives_grow;
    Alcotest.test_case "gc invalidates cache entries" `Quick
      test_cache_gc_invalidates_entries;
    Alcotest.test_case "relprod_replace fused path" `Quick
      test_relprod_replace_block_move;
    Alcotest.test_case "relprod_replace fallback path" `Quick
      test_relprod_replace_fallback;
    Alcotest.test_case "replace_exist fused path" `Quick
      test_replace_exist_block_move;
    Alcotest.test_case "frozen sweep restores the arena" `Quick
      test_frozen_sweep;
  ]
  @ qcheck_cases
