(* Tests for the persistent relation store: levelized dumps, the binary
   snapshot format, and corrupt-file rejection.  Round-trips are checked
   on random relations and on a real analysis fixed point. *)

module M = Jedd_bdd.Manager
module Lv = Jedd_bdd.Levelized
module U = Jedd_relation.Universe
module R = Jedd_relation.Relation
module Dom = Jedd_relation.Domain
module Attr = Jedd_relation.Attribute
module Phys = Jedd_relation.Physdom
module Schema = Jedd_relation.Schema
module Snapshot = Jedd_store.Snapshot
module Binio = Jedd_store.Binio
module Suite = Jedd_analyses.Suite
module Live = Jedd_analyses.Live
module Workload = Jedd_minijava.Workload

(* A small two-relation world over three domains, with tuples drawn
   from a seeded PRNG so failures reproduce. *)
let build_world ?(seed = 42) ?(n = 40) () =
  let u = U.create () in
  let d1 = Dom.declare ~name:"D1" ~size:13 () in
  let d2 = Dom.declare ~name:"D2" ~size:7 () in
  let a = Attr.declare ~name:"a" ~domain:d1 in
  let b = Attr.declare ~name:"b" ~domain:d2 in
  let c = Attr.declare ~name:"c" ~domain:d1 in
  let p1 = Phys.declare u ~name:"P1" ~bits:4 in
  let p2 = Phys.declare u ~name:"P2" ~bits:3 in
  let p3 = Phys.declare u ~name:"P3" ~bits:5 in
  let sch_ab = Schema.make [ { Schema.attr = a; phys = p1 }; { Schema.attr = b; phys = p2 } ] in
  let sch_c = Schema.make [ { Schema.attr = c; phys = p3 } ] in
  let rng = Random.State.make [| seed |] in
  let tuples_ab =
    List.init n (fun _ ->
        [ Random.State.int rng 13; Random.State.int rng 7 ])
    |> List.sort_uniq compare
  in
  let tuples_c =
    List.init (n / 2) (fun _ -> [ Random.State.int rng 13 ])
    |> List.sort_uniq compare
  in
  let r_ab = R.of_tuples u sch_ab tuples_ab in
  let r_c = R.of_tuples u sch_c tuples_c in
  {
    Snapshot.u;
    meta = [ ("kind", "test-world") ];
    domains = [ ("D1", d1); ("D2", d2) ];
    attrs = [ ("a", a); ("b", b); ("c", c) ];
    physdoms = [ ("P1", p1); ("P2", p2); ("P3", p3) ];
    relations = [ ("W.ab", r_ab); ("W.c", r_c) ];
  }

let check_same_relations snap snap' =
  List.iter2
    (fun (name, r) (name', r') ->
      Alcotest.(check string) "relation name" name name';
      Alcotest.(check int) (name ^ " size") (R.size r) (R.size r');
      Alcotest.(check (list (list int))) (name ^ " tuples") (R.tuples r)
        (R.tuples r'))
    snap.Snapshot.relations snap'.Snapshot.relations

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let checkb = Alcotest.(check bool)

(* -- levelized dumps ---------------------------------------------------- *)

let test_levelized_roundtrip () =
  let world = build_world () in
  List.iter
    (fun (name, r) ->
      let dump = R.export r in
      Lv.validate ~num_vars:(M.num_vars (U.manager world.Snapshot.u)) dump;
      let r' = R.import world.Snapshot.u (R.schema r) dump in
      (* a dump holds each node of the root's BDD once *)
      Alcotest.(check int) (name ^ " nodecount") (Lv.node_count dump)
        (Lv.node_count (R.export r'));
      Alcotest.(check (list (list int))) (name ^ " tuples") (R.tuples r)
        (R.tuples r'))
    world.Snapshot.relations

let test_levelized_terminal () =
  let m = M.create () in
  let d = Lv.of_manager m M.zero in
  Alcotest.(check int) "zero root" Lv.t_false d.Lv.root;
  let n = Lv.to_manager m d in
  Alcotest.(check int) "zero back" M.zero n;
  M.delref m n;
  let d1 = Lv.of_manager m M.one in
  Alcotest.(check int) "one root" Lv.t_true d1.Lv.root

let test_levelized_malformed () =
  let bad =
    [
      (* lo = hi: violates reducedness *)
      { Lv.blocks = [| (0, [| Lv.t_false |], [| Lv.t_false |]) |]; root = Lv.pack 0 0 };
      (* child above parent *)
      {
        Lv.blocks =
          [|
            (0, [| Lv.t_false |], [| Lv.pack 1 0 |]);
            (1, [| Lv.pack 0 0 |], [| Lv.t_true |]);
          |];
        root = Lv.pack 0 0;
      };
      (* dangling child index *)
      { Lv.blocks = [| (0, [| Lv.t_false |], [| Lv.pack 3 7 |]) |]; root = Lv.pack 0 0 };
      (* root out of range *)
      { Lv.blocks = [| (0, [| Lv.t_false |], [| Lv.t_true |]) |]; root = Lv.pack 0 9 };
      (* unordered levels *)
      {
        Lv.blocks =
          [|
            (2, [| Lv.t_false |], [| Lv.t_true |]);
            (1, [| Lv.t_false |], [| Lv.t_true |]);
          |];
        root = Lv.pack 2 0;
      };
      (* well-formed, but at a level a 3-variable manager does not have *)
      { Lv.blocks = [| (3, [| Lv.t_false |], [| Lv.t_true |]) |]; root = Lv.pack 3 0 };
    ]
  in
  List.iter
    (fun d ->
      match Lv.validate ~num_vars:3 d with
      | () -> Alcotest.fail "malformed dump accepted"
      | exception Lv.Malformed _ -> ())
    bad

(* -- snapshot round-trips ------------------------------------------------ *)

let test_snapshot_roundtrip () =
  let world = build_world () in
  let bytes = Snapshot.to_bytes world in
  let snap = Snapshot.of_bytes bytes in
  Alcotest.(check (option string)) "meta" (Some "test-world")
    (Snapshot.meta_value snap "kind");
  check_same_relations world snap;
  let hex s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "deterministic serialization" (hex bytes)
    (hex (Snapshot.to_bytes (build_world ())))

let test_snapshot_analysis_fixed_point () =
  let p = Workload.generate Workload.tiny in
  let inst, res = Suite.run_combined p in
  let world = Suite.snapshot ~meta:[ ("workload", "tiny") ] inst in
  let snap = Snapshot.of_bytes (Snapshot.to_bytes world) in
  let get name =
    match Snapshot.find_relation snap name with
    | Some r -> R.tuples r
    | None -> Alcotest.fail ("missing relation " ^ name)
  in
  Alcotest.(check (list (list int))) "pt" res.Suite.pt (get "PointsTo.pt");
  Alcotest.(check (list (list int)))
    "subtypes" res.Suite.subtypes (get "Hierarchy.subtypes");
  Alcotest.(check (list (list int)))
    "resolved" res.Suite.resolved (get "VirtualCalls.resolved");
  Alcotest.(check (list (list int)))
    "reachable" res.Suite.reachable (get "CallGraph.reachable");
  (* suffix lookup *)
  Alcotest.(check bool) "suffix alias" true
    (Snapshot.find_relation snap "pt" <> None)

let test_snapshot_qcheck =
  QCheck.Test.make ~count:25 ~name:"random tuple sets round-trip"
    QCheck.(pair small_nat small_nat)
    (fun (seed, n) ->
      let world = build_world ~seed ~n:(1 + n) () in
      let snap = Snapshot.of_bytes (Snapshot.to_bytes world) in
      List.for_all2
        (fun (_, r) (_, r') ->
          R.size r = R.size r' && R.tuples r = R.tuples r')
        world.Snapshot.relations snap.Snapshot.relations)

(* -- corrupt-file rejection ---------------------------------------------- *)

let expect_corrupt what bytes =
  match Snapshot.of_bytes bytes with
  | _ -> Alcotest.fail (what ^ ": corrupt snapshot accepted")
  | exception Snapshot.Corrupt _ -> ()

let test_corrupt_rejection () =
  let world = build_world () in
  let good = Snapshot.to_bytes world in
  (* sanity: the pristine bytes load *)
  ignore (Snapshot.of_bytes good);
  expect_corrupt "empty" "";
  expect_corrupt "bad magic" ("XXXXXXXX" ^ String.sub good 8 (String.length good - 8));
  (* wrong version: bump byte 8 *)
  let bv = Bytes.of_string good in
  Bytes.set bv 8 (Char.chr (Char.code (Bytes.get bv 8) + 1));
  expect_corrupt "version skew" (Bytes.to_string bv);
  (* truncations at every region boundary and mid-payload *)
  List.iter
    (fun len -> expect_corrupt "truncated" (String.sub good 0 len))
    [ 4; 8; 15; 23; 39; String.length good / 2; String.length good - 1 ];
  (* flip one payload byte: must fail the checksum *)
  let flip = Bytes.of_string good in
  let pos = 40 + ((String.length good - 40) / 2) in
  Bytes.set flip pos (Char.chr (Char.code (Bytes.get flip pos) lxor 0xff));
  expect_corrupt "bit flip" (Bytes.to_string flip);
  (* trailing garbage changes the length/digest relation *)
  expect_corrupt "trailing bytes" (good ^ "garbage")

(* Re-sealing a mutated payload gets it past the checksum, so the
   parser itself must reject it. *)
let test_resealed_mutations =
  let payload =
    lazy (Snapshot.payload_of_bytes (Snapshot.to_bytes (build_world ())))
  in
  QCheck.Test.make ~count:500
    ~name:"re-sealed payload mutations raise Corrupt or load"
    QCheck.(triple (int_bound 2) pos_int int)
    (fun (op, pos, v) ->
      let p = Lazy.force payload in
      let len = String.length p in
      let mutated =
        match op with
        | 0 ->
          (* flip one bit *)
          let b = Bytes.of_string p in
          let i = pos mod len in
          Bytes.set b i (Char.chr (Char.code p.[i] lxor (1 lsl (v land 7))));
          Bytes.to_string b
        | 1 ->
          (* overwrite 8 bytes with a little-endian int *)
          let b = Bytes.of_string p in
          Bytes.set_int64_le b (pos mod (len - 7)) (Int64.of_int v);
          Bytes.to_string b
        | _ -> String.sub p 0 (pos mod len)
      in
      match Snapshot.of_bytes (Snapshot.bytes_of_payload mutated) with
      | _ | (exception Snapshot.Corrupt _) -> true)

(* A sealed snapshot over one domain D of size 4 and one attribute a,
   with the given physical domains (name, width, recorded levels) and
   relations written by [relations]. *)
let hand_payload ~physdoms ~relations =
  let w = Binio.writer () in
  Binio.list_ w (fun _ () -> ()) [];
  Binio.list_ w
    (fun w () ->
      Binio.string_ w "D";
      Binio.int_ w 4)
    [ () ];
  Binio.list_ w
    (fun w () ->
      Binio.string_ w "a";
      Binio.string_ w "D")
    [ () ];
  Binio.list_ w
    (fun w (name, width, levels) ->
      Binio.string_ w name;
      Binio.int_ w width;
      levels w)
    physdoms;
  relations w;
  Snapshot.bytes_of_payload (Binio.contents w)

let no_relations w = Binio.list_ w (fun _ () -> ()) []

(* Two payloads whose counts, unbounded, drive an allocation: a dump's
   block count past [Sys.max_array_length] (with one real block behind
   it) and an int array of length [min_int]. *)
let test_hostile_counts () =
  let payload ~levels ~relations =
    hand_payload ~physdoms:[ ("P", 2, levels) ] ~relations
  in
  let huge_block_count w =
    Binio.list_ w
      (fun w () ->
        Binio.string_ w "r";
        Binio.list_ w
          (fun w () ->
            Binio.string_ w "a";
            Binio.string_ w "P")
          [ () ];
        Binio.int_ w 0;
        Binio.int_ w (Lv.pack 0 0);
        Binio.int_ w (Sys.max_array_length + 1);
        Binio.int_ w 0;
        Binio.int_array w [| Lv.t_false |];
        Binio.int_array w [| Lv.t_true |])
      [ () ]
  in
  List.iter
    (fun (what, bytes) ->
      match Snapshot.of_bytes bytes with
      | _ -> Alcotest.failf "%s: loaded" what
      | exception Snapshot.Corrupt _ -> ())
    [
      ( "block count past Sys.max_array_length",
        payload
          ~levels:(fun w -> Binio.int_array w [| 0; 1 |])
          ~relations:huge_block_count );
      ( "int array of length min_int",
        payload
          ~levels:(fun w -> Binio.int_ w min_int)
          ~relations:(fun _ -> ()) );
    ]

(* The declarations fix the variable order, so a physical domain must
   record exactly the levels it is declared at: a complete but permuted
   level list, within one domain or across two, is refused with the
   domain's name rather than imposed on the fresh universe. *)
let test_recorded_order_checked () =
  let levels l w = Binio.int_array w l in
  let load physdoms =
    Snapshot.of_bytes (hand_payload ~physdoms ~relations:no_relations)
  in
  let snap =
    load [ ("P", 2, levels [| 0; 1 |]); ("Q", 2, levels [| 2; 3 |]) ]
  in
  Alcotest.(check (list (array int))) "declared levels"
    [ [| 0; 1 |]; [| 2; 3 |] ]
    (List.map (fun (_, p) -> Phys.levels p) snap.Snapshot.physdoms);
  List.iter
    (fun (what, physdoms, culprit) ->
      match load physdoms with
      | _ -> Alcotest.failf "%s: loaded" what
      | exception Snapshot.Corrupt msg ->
        checkb (what ^ ": names " ^ culprit) true
          (contains msg ("physdom " ^ culprit ^ ":")))
    [
      ( "levels swapped within a domain",
        [ ("P", 2, levels [| 1; 0 |]); ("Q", 2, levels [| 2; 3 |]) ],
        "P" );
      ( "domains swapped in the order",
        [ ("P", 2, levels [| 2; 3 |]); ("Q", 2, levels [| 0; 1 |]) ],
        "P" );
      ( "second domain permuted",
        [ ("P", 2, levels [| 0; 1 |]); ("Q", 2, levels [| 3; 2 |]) ],
        "Q" );
    ]

let test_save_load_file () =
  let world = build_world () in
  let path = Filename.temp_file "jedd_snap" ".snap" in
  Snapshot.save_file path world;
  let snap = Snapshot.load_file path in
  check_same_relations world snap;
  Sys.remove path

let test_corruption_messages () =
  let good = Snapshot.to_bytes (build_world ()) in
  (* checksum failure reports expected vs found digests *)
  let flip = Bytes.of_string good in
  let pos = 40 + ((String.length good - 40) / 2) in
  Bytes.set flip pos (Char.chr (Char.code (Bytes.get flip pos) lxor 0xff));
  let flipped = Bytes.to_string flip in
  (match Snapshot.of_bytes flipped with
  | _ -> Alcotest.fail "bit flip accepted"
  | exception Snapshot.Corrupt msg ->
    checkb "checksum message carries both digests" true
      (contains msg "hashes to"));
  (* load_file errors carry the offending path *)
  let path = Filename.temp_file "jedd_snap" ".snap" in
  let oc = open_out_bin path in
  output_string oc flipped;
  close_out oc;
  (match Snapshot.load_file path with
  | _ -> Alcotest.fail "bit flip accepted from file"
  | exception Snapshot.Corrupt msg ->
    checkb "path in checksum message" true (contains msg path));
  Sys.remove path;
  (* a file that cannot be opened is not called corrupt *)
  match Snapshot.load_file path with
  | _ -> Alcotest.fail "loaded a missing file"
  | exception Sys_error msg ->
    checkb "path in open error" true (contains msg path)

(* -- in-memory copies ------------------------------------------------------ *)

(* Distinct nodes under a snapshot's roots: each root rebuilt from its
   dump in one fresh manager over the same levels, where hash-consing
   merges what the roots share. *)
let shared_nodes (s : Snapshot.t) =
  let m = M.create () in
  for _ = 1 to M.num_vars (U.manager s.Snapshot.u) do
    ignore (M.new_var m)
  done;
  Jedd_bdd.Count.nodecount_many m
    (List.map (fun (_, r) -> Lv.to_manager m (R.export r)) s.Snapshot.relations)

let layout (name, r) =
  ( name,
    List.map
      (fun (e : Schema.entry) -> (Attr.name e.attr, Phys.name e.phys))
      (Schema.entries (R.schema r)) )

(* [copy ~freeze:true s] is [of_bytes (to_bytes s)] up to node handles:
   the same names, layouts, meta and tuples, frozen, holding exactly the
   source's distinct nodes, read without one cache lookup in [s]. *)
let check_copy what (s : Snapshot.t) =
  let via_bytes = Snapshot.of_bytes (Snapshot.to_bytes s) in
  let before = U.bdd_snapshot s.Snapshot.u in
  let c = Snapshot.copy ~freeze:true s in
  let d = U.bdd_delta_since s.Snapshot.u before in
  Alcotest.(check int) (what ^ ": source cache lookups") 0
    (d.U.cache_hits + d.U.cache_misses);
  checkb (what ^ ": frozen") true (U.frozen c.Snapshot.u);
  Alcotest.(check int) (what ^ ": frozen nodes = shared nodes + terminals")
    (shared_nodes s + 2)
    (M.frozen_live_nodes (U.manager c.Snapshot.u));
  Alcotest.(check (list (pair string string))) (what ^ ": meta")
    via_bytes.Snapshot.meta c.Snapshot.meta;
  Alcotest.(check (list (pair string (list (pair string string)))))
    (what ^ ": names and layouts")
    (List.map layout via_bytes.Snapshot.relations)
    (List.map layout c.Snapshot.relations);
  check_same_relations via_bytes c

let refusal f =
  match f () with
  | _ -> Alcotest.fail "accepted"
  | exception Invalid_argument msg -> msg

let test_snapshot_copy () =
  check_copy "build_world" (build_world ());
  let session = Live.create (Workload.generate Workload.tiny) in
  check_copy "tiny Live session" (Suite.snapshot (Live.inst session));
  (* what saving refuses, copying refuses with the same message: an
     attribute in a scratch physical domain *)
  let world = build_world () in
  let r_ab = List.assoc "W.ab" world.Snapshot.relations in
  let a = List.assoc "a" world.Snapshot.attrs in
  let a2 = Attr.declare ~name:"a2" ~domain:(Attr.domain a) in
  let s =
    {
      world with
      relations =
        world.Snapshot.relations @ [ ("W.bad", R.copy r_ab a ~as_:a2) ];
    }
  in
  Alcotest.(check string) "scratch physical domain"
    (refusal (fun () -> Snapshot.to_bytes s))
    (refusal (fun () -> Snapshot.copy s))

let suite =
  [
    Alcotest.test_case "levelized round-trip" `Quick test_levelized_roundtrip;
    Alcotest.test_case "levelized terminals" `Quick test_levelized_terminal;
    Alcotest.test_case "levelized malformed dumps rejected" `Quick
      test_levelized_malformed;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "analysis fixed point survives the store" `Quick
      test_snapshot_analysis_fixed_point;
    QCheck_alcotest.to_alcotest test_snapshot_qcheck;
    Alcotest.test_case "corrupt and truncated files rejected" `Quick
      test_corrupt_rejection;
    QCheck_alcotest.to_alcotest test_resealed_mutations;
    Alcotest.test_case "hostile counts rejected" `Quick test_hostile_counts;
    Alcotest.test_case "recorded order must match declarations" `Quick
      test_recorded_order_checked;
    Alcotest.test_case "save_file/load_file" `Quick test_save_load_file;
    Alcotest.test_case "corruption errors name path and digests" `Quick
      test_corruption_messages;
    Alcotest.test_case "snapshot copy" `Quick test_snapshot_copy;
  ]
