(* Tests for the persistent relation store: levelized dumps, the binary
   snapshot format, the content-addressed store, and corrupt-file
   rejection.  Round-trips are checked on random relations and on a real
   analysis fixed point; the mtbdd engine, which has no levelized form,
   is refused up front. *)

module M = Jedd_bdd.Manager
module Lv = Jedd_bdd.Levelized
module U = Jedd_relation.Universe
module B = Jedd_relation.Backend
module R = Jedd_relation.Relation
module Dom = Jedd_relation.Domain
module Attr = Jedd_relation.Attribute
module Phys = Jedd_relation.Physdom
module Schema = Jedd_relation.Schema
module Snapshot = Jedd_store.Snapshot
module Binio = Jedd_store.Binio
module Cas = Jedd_store.Cas
module Delta = Jedd_store.Delta
module Suite = Jedd_analyses.Suite
module Workload = Jedd_minijava.Workload

(* A small two-relation world over three domains, with tuples drawn
   from a seeded PRNG so failures reproduce. *)
let build_world ?(seed = 42) ?(n = 40) ?(backend = `Incore) () =
  let u = U.create ~backend () in
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

(* -- levelized dumps ---------------------------------------------------- *)

let test_levelized_roundtrip () =
  let world = build_world () in
  let lv = Option.get (R.levelized world.Snapshot.u) in
  List.iter
    (fun (name, r) ->
      let dump = lv.R.export r in
      Lv.validate ~num_vars:(M.num_vars (U.manager world.Snapshot.u)) dump;
      let r' = lv.R.import (R.schema r) dump in
      (* a dump holds each node of the root's BDD once *)
      Alcotest.(check int) (name ^ " nodecount") (Lv.node_count dump)
        (Lv.node_count (lv.R.export r'));
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
  let snap = Snapshot.of_bytes (Snapshot.to_bytes world) in
  Alcotest.(check (option string)) "meta" (Some "test-world")
    (Snapshot.meta_value snap "kind");
  check_same_relations world snap

let test_snapshot_reordered () =
  (* a snapshot taken after heavy reordering must still round-trip *)
  let world = build_world () in
  let u = world.Snapshot.u in
  Jedd_reorder.Reorder.random_swaps ~seed:7 (U.reorder_engine u) 50;
  let before = List.map (fun (n, r) -> (n, R.tuples r)) world.Snapshot.relations in
  let snap = Snapshot.of_bytes (Snapshot.to_bytes world) in
  List.iter2
    (fun (n, tuples) (n', r') ->
      Alcotest.(check string) "name" n n';
      Alcotest.(check (list (list int))) (n ^ " tuples after reorder") tuples
        (R.tuples r'))
    before snap.Snapshot.relations

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

(* Two payloads whose counts, unbounded, drive an allocation: a dump's
   block count past [Sys.max_array_length] (with one real block behind
   it) and an int array of length [min_int]. *)
let test_hostile_counts () =
  let payload ~levels ~relations =
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
      (fun w () ->
        Binio.string_ w "P";
        Binio.int_ w 2;
        levels w)
      [ () ];
    relations w;
    Snapshot.bytes_of_payload (Binio.contents w)
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

(* What each kind can do, and where the other is refused: freezing,
   reordering and snapshots need the in-core node table, weights the
   terminal-valued store. *)
let test_capability_refusals () =
  let checkb = Alcotest.(check bool) in
  List.iter
    (fun backend ->
      let name = B.kind_name backend in
      let world = build_world ~backend () in
      let u = world.Snapshot.u in
      let in_place = backend = `Incore in
      checkb (name ^ ": in place") in_place (B.in_place backend);
      checkb (name ^ ": levelized capability") in_place
        (R.levelized u <> None);
      (* a snapshot with no relations: a refusal here comes before any
         relation is written or read *)
      let empty = { world with Snapshot.relations = [] } in
      (match Snapshot.to_bytes empty with
      | _ -> checkb (name ^ ": to_bytes") true in_place
      | exception Invalid_argument _ ->
        checkb (name ^ ": to_bytes refused") false in_place);
      (match
         Snapshot.of_bytes ~backend
           (Snapshot.to_bytes (build_world ()))
       with
      | _ -> checkb (name ^ ": of_bytes") true in_place
      | exception Invalid_argument _ ->
        checkb (name ^ ": of_bytes refused") false in_place);
      (* weights *)
      let sch = R.schema (List.assoc "W.ab" world.Snapshot.relations) in
      (match R.of_weighted_tuples u sch [ ([ 1; 2 ], 3) ] with
      | r -> Alcotest.(check int) (name ^ ": weight") 3 (R.weight_of r [ 1; 2 ])
      | exception R.Type_error msg ->
        checkb (name ^ ": weights refused") true (backend <> `Mtbdd);
        Alcotest.(check string) (name ^ ": weights message")
          (Printf.sprintf
             "Relation.of_weighted_tuples: requires an mtbdd universe (this \
              one is %s)"
             name)
          msg);
      (* reorder runs a sifting pass in place only *)
      let before = List.map (fun (n, r) -> (n, R.tuples r)) world.Snapshot.relations in
      let passes = M.reorder_count (U.manager u) in
      U.reorder u;
      Alcotest.(check int) (name ^ ": reorder passes")
        (passes + if in_place then 1 else 0)
        (M.reorder_count (U.manager u));
      List.iter
        (fun (n, r) ->
          Alcotest.(check (list (list int))) (name ^ ": " ^ n ^ " after reorder")
            (List.assoc n before) (R.tuples r))
        world.Snapshot.relations;
      (* freezing *)
      (match U.freeze u with
      | () -> checkb (name ^ ": freeze") true in_place
      | exception Invalid_argument _ ->
        checkb (name ^ ": freeze refused") false in_place);
      checkb (name ^ ": frozen") in_place (U.frozen u))
    [ `Incore; `Mtbdd ]

let test_save_load_file () =
  let world = build_world () in
  let path = Filename.temp_file "jedd_snap" ".snap" in
  Snapshot.save_file path world;
  let snap = Snapshot.load_file path in
  check_same_relations world snap;
  Sys.remove path

(* -- content-addressed store --------------------------------------------- *)

(* A fresh store root in the temp directory, removed with everything in
   it once [f] returns or raises. *)
let with_cas_root f =
  let root = Filename.temp_file "jedd_cas" "" in
  Sys.remove root;
  let rec remove path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> remove (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists root then remove root)
    (fun () -> f root)

let test_cas () =
  with_cas_root @@ fun root ->
  let cas = Cas.open_ root in
  let world = build_world () in
  let bytes = Snapshot.to_bytes world in
  let hex = Cas.put cas bytes in
  Alcotest.(check string) "idempotent put" hex (Cas.put cas bytes);
  Cas.tag cas "tiny" hex;
  Alcotest.(check (option string)) "ref" (Some hex) (Cas.read_ref cas "tiny");
  (* load through ref name, digest, and digest prefix *)
  List.iter
    (fun key ->
      match Cas.get cas key with
      | None -> Alcotest.fail ("unresolvable key " ^ key)
      | Some data -> check_same_relations world (Snapshot.of_bytes data))
    [ "tiny"; hex; String.sub hex 0 8 ];
  Alcotest.(check (option string)) "missing ref" None (Cas.get cas "nope");
  Alcotest.(check int) "one object" 1 (List.length (Cas.objects cas))

(* -- differential snapshots ---------------------------------------------- *)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let hex_of s = Digest.to_hex (Digest.string s)
let checkb = Alcotest.(check bool)

let test_delta_diff_apply () =
  let base = Snapshot.to_bytes (build_world ~seed:5 ()) in
  (* serialization is deterministic, so identical worlds diff empty *)
  let same = Snapshot.to_bytes (build_world ~seed:5 ()) in
  Alcotest.(check string) "deterministic serialization" (hex_of base)
    (hex_of same);
  let d0 = Delta.diff ~base ~next:same () in
  Alcotest.(check int) "no changes between identical snapshots" 0
    (List.length d0.Delta.changed);
  Alcotest.(check string) "empty delta applies to identity" (hex_of base)
    (hex_of (Delta.apply ~base d0));
  (* drop one relation's tuples: exactly that entry is recorded *)
  let w2 = build_world ~seed:5 () in
  let rc = List.assoc "W.c" w2.Snapshot.relations in
  let rc' = R.empty w2.Snapshot.u (R.schema rc) in
  let w2 =
    {
      w2 with
      Snapshot.relations =
        [ ("W.ab", List.assoc "W.ab" w2.Snapshot.relations); ("W.c", rc') ];
    }
  in
  let next = Snapshot.to_bytes w2 in
  let d = Delta.diff ~meta:[ ("edit", "clear W.c") ] ~base ~next () in
  Alcotest.(check (list string)) "only W.c changed" [ "W.c" ]
    (List.map fst d.Delta.changed);
  Alcotest.(check (list string)) "order covers every relation"
    [ "W.ab"; "W.c" ] d.Delta.order;
  (* file round-trip, then replay: byte-identical to the real next *)
  let d' = Delta.of_bytes (Delta.to_bytes d) in
  checkb "delta round-trips" true (d = d');
  let out = Delta.apply ~base d' in
  Alcotest.(check string) "replay is byte-identical" (hex_of next)
    (hex_of out);
  check_same_relations w2 (Snapshot.of_bytes out);
  (* replaying onto the wrong base fails with both digests named *)
  match Delta.apply ~base:next d' with
  | _ -> Alcotest.fail "wrong base accepted"
  | exception Snapshot.Corrupt msg ->
    checkb "recorded base digest in message" true (contains msg d.Delta.base);
    checkb "found digest in message" true (contains msg (hex_of next))

let test_delta_chain () =
  with_cas_root @@ fun root ->
  let cas = Cas.open_ root in
  let mk seed = Snapshot.to_bytes (build_world ~seed ()) in
  let a = mk 1 and b = mk 2 and c = mk 3 in
  ignore (Cas.put cas a);
  Cas.tag cas "main" (Cas.put cas (Delta.to_bytes (Delta.diff ~base:a ~next:b ())));
  Alcotest.(check string) "delta ref replays to the next generation"
    (hex_of b)
    (hex_of (Delta.load_chain cas "main"));
  ignore (Cas.put cas b);
  Cas.tag cas "main" (Cas.put cas (Delta.to_bytes (Delta.diff ~base:b ~next:c ())));
  Alcotest.(check string) "second publish replays too" (hex_of c)
    (hex_of (Delta.load_chain cas "main"));
  (* full snapshot objects pass through the same entry point *)
  Alcotest.(check string) "full object loads unchanged" (hex_of a)
    (hex_of (Delta.load_chain cas (hex_of a)));
  checkb "replayed bytes rebuild a universe" true
    (Snapshot.of_bytes (Delta.load_chain cas "main") |> fun s ->
     List.length s.Snapshot.relations = 2);
  (* a dangling base fails cleanly *)
  Cas.tag cas "orphan"
    (Cas.put cas (Delta.to_bytes (Delta.diff ~base:c ~next:a ())));
  match Delta.load_chain cas "orphan" with
  | _ -> Alcotest.fail "dangling base accepted"
  | exception Snapshot.Corrupt _ -> ()

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
  (match Snapshot.load_file path with
  | _ -> Alcotest.fail "loaded a missing file"
  | exception Snapshot.Corrupt msg ->
    checkb "path in open error" true (contains msg path));
  (* a damaged CAS object names its path and both digests *)
  with_cas_root @@ fun root ->
  let cas = Cas.open_ root in
  let hex = Cas.put cas good in
  let obj_path =
    Filename.concat (Filename.concat root "objects") (hex ^ ".snap")
  in
  let oc = open_out_bin obj_path in
  output_string oc "damaged bytes";
  close_out oc;
  match Cas.get cas hex with
  | _ -> Alcotest.fail "damaged object served"
  | exception Cas.Corrupt_object msg ->
    checkb "object path named" true (contains msg obj_path);
    checkb "expected digest named" true (contains msg hex);
    checkb "found digest named" true
      (contains msg (hex_of "damaged bytes"))

let suite =
  [
    Alcotest.test_case "levelized round-trip" `Quick test_levelized_roundtrip;
    Alcotest.test_case "levelized terminals" `Quick test_levelized_terminal;
    Alcotest.test_case "levelized malformed dumps rejected" `Quick
      test_levelized_malformed;
    Alcotest.test_case "snapshot round-trip" `Quick test_snapshot_roundtrip;
    Alcotest.test_case "snapshot after dynamic reordering" `Quick
      test_snapshot_reordered;
    Alcotest.test_case "analysis fixed point survives the store" `Quick
      test_snapshot_analysis_fixed_point;
    QCheck_alcotest.to_alcotest test_snapshot_qcheck;
    Alcotest.test_case "corrupt and truncated files rejected" `Quick
      test_corrupt_rejection;
    QCheck_alcotest.to_alcotest test_resealed_mutations;
    Alcotest.test_case "hostile counts rejected" `Quick test_hostile_counts;
    Alcotest.test_case "capability refusals by kind" `Quick
      test_capability_refusals;
    Alcotest.test_case "save_file/load_file" `Quick test_save_load_file;
    Alcotest.test_case "content-addressed store" `Quick test_cas;
    Alcotest.test_case "delta diff/apply round-trip" `Quick
      test_delta_diff_apply;
    Alcotest.test_case "delta chains through the store" `Quick
      test_delta_chain;
    Alcotest.test_case "corruption errors name path and digests" `Quick
      test_corruption_messages;
  ]
