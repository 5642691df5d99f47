(* Tests for the incremental analysis engine (lib/incr + Live):
   semi-naive vs naive differential, the edit model, warm resumes, and
   randomized edit sequences replayed incrementally vs from-scratch. *)

module P = Jedd_minijava.Program
module Workload = Jedd_minijava.Workload
module Suite = Jedd_analyses.Suite
module Live = Jedd_analyses.Live
module Edit = Jedd_incr.Edit
module Fixpoint = Jedd_incr.Fixpoint
module R = Jedd_relation.Relation

let tiny () = Workload.generate Workload.tiny

let small () =
  Workload.generate
    {
      Workload.tiny with
      Workload.name = "small";
      classes = 12;
      sigs_per_class = 3;
      vars_per_method = 4;
      assign_factor = 5;
      field_ops_per_method = 2;
      calls_per_method = 2;
      seed = 7;
    }

let sorted l = List.sort_uniq compare l

let check_results what (a : Suite.results) (b : Suite.results) =
  let eq name x y =
    Alcotest.(check (list (list int)))
      (what ^ ": " ^ name)
      (sorted x) (sorted y)
  in
  eq "subtypes" a.Suite.subtypes b.Suite.subtypes;
  eq "pt" a.Suite.pt b.Suite.pt;
  eq "resolved" a.Suite.resolved b.Suite.resolved;
  eq "call_edges" a.Suite.call_edges b.Suite.call_edges;
  eq "reachable" a.Suite.reachable b.Suite.reachable;
  eq "side_effects" a.Suite.side_effects b.Suite.side_effects

(* -- semi-naive vs naive ------------------------------------------------ *)

let test_semi_naive_matches_naive_incore () =
  let p = small () in
  let _, semi = Suite.run_combined p in
  let _, naive = Suite.run_combined ~naive:true p in
  check_results "incore" naive semi

let test_fixpoint_stats_shape () =
  let p = tiny () in
  let _, _ = Suite.run_combined p in
  (* exercise the combinator directly through an analysis instance *)
  let inst, _ = Suite.run_combined p in
  let st = Jedd_analyses.Hierarchy.solve inst in
  (* resuming an already-solved fixed point must do zero work *)
  Alcotest.(check int) "resolved fixed point resumes in one iteration" 1
    st.Fixpoint.iterations;
  Alcotest.(check int) "no new tuples on a no-op resume" 0
    (Fixpoint.total_delta st)

(* -- edit model --------------------------------------------------------- *)

let test_edit_validation () =
  let p = tiny () in
  let bad f = try ignore (f ()); false with Edit.Invalid_edit _ -> true in
  Alcotest.(check bool) "bad superclass" true
    (bad (fun () -> Edit.apply p (Edit.Add_class { superclass = Some 999 })));
  Alcotest.(check bool) "bad var" true
    (bad (fun () -> Edit.apply p (Edit.Add_assign { src = -1; dst = 0 })));
  Alcotest.(check bool) "missing fact" true
    (bad (fun () ->
         Edit.apply p (Edit.Remove_assign { src = 999999; dst = 999999 })));
  Alcotest.(check bool) "missing callsite" true
    (bad (fun () -> Edit.apply p (Edit.Remove_callsite { callsite = 99999 })))

let test_edit_tombstones () =
  let p = tiny () in
  let cs = (List.hd p.P.calls).P.cs_id in
  let p' = Edit.apply p (Edit.Remove_callsite { callsite = cs }) in
  Alcotest.(check int) "one fewer call site"
    (List.length p.P.calls - 1)
    (List.length p'.P.calls);
  (* ids are never reused: the next id is past the removed one *)
  Alcotest.(check bool) "id space not compacted" true
    (Edit.next_callsite_id p' = Edit.next_callsite_id p);
  let p'' =
    Edit.apply p'
      (Edit.Add_callsite { recv = 0; signature = 0; in_method = 0 })
  in
  Alcotest.(check int) "fresh id allocated above the tombstone"
    (Edit.next_callsite_id p)
    (List.fold_left
       (fun a (c : P.call_site) -> max a c.P.cs_id)
       0 p''.P.calls)

(* -- live sessions ------------------------------------------------------ *)

let from_scratch p =
  let _, r = Suite.run_combined p in
  r

let test_live_cold_matches_combined () =
  let p = small () in
  let live = Live.create p in
  check_results "cold" (from_scratch p) (Live.results live)

let test_live_single_edits () =
  let p = small () in
  let live = Live.create p in
  let edits =
    [
      Edit.Add_assign { src = 1; dst = 2 };
      Edit.Add_callsite { recv = 3; signature = 0; in_method = 1 };
      Edit.Add_alloc { var = 2; cls = 1 };
      Edit.Add_class { superclass = Some 0 };
      Edit.Add_store { src = 1; base = 2; field = 0 };
      Edit.Add_load { base = 2; field = 0; dst = 3 };
    ]
  in
  ignore
    (List.fold_left
       (fun () e ->
         let st = Live.update live e in
         Alcotest.(check bool)
           (Edit.describe e ^ " stays incremental")
           true
           (st.Live.mode = Live.Incremental);
         check_results (Edit.describe e) (from_scratch (Live.program live))
           (Live.results live))
       () edits)

let test_live_method_edit_partial () =
  let p = small () in
  let live = Live.create p in
  (* a new method may override existing resolutions: vcall resets *)
  let st =
    Live.update live
      (Edit.Add_method { cls = 1; signature = p.P.n_sigs - 1; n_vars = 2; entry = false })
  in
  Alcotest.(check bool) "declares growth is not plain incremental" true
    (st.Live.mode = Live.Partial || st.Live.mode = Live.Incremental);
  check_results "add-method" (from_scratch (Live.program live))
    (Live.results live)

let test_live_removal_rebuild () =
  let p = small () in
  let live = Live.create p in
  let src, dst = List.hd p.P.assigns in
  let st = Live.update live (Edit.Remove_assign { src; dst }) in
  Alcotest.(check bool) "fact removal forces a rebuild" true
    (st.Live.mode = Live.Rebuild);
  check_results "rm-assign" (from_scratch (Live.program live))
    (Live.results live)

let test_live_capacity_recompile () =
  let p = tiny () in
  let live = Live.create p in
  (* add classes until the padded Type domain overflows *)
  let rec go n saw_recompile =
    if n = 0 then saw_recompile
    else
      let st = Live.update live (Edit.Add_class { superclass = None }) in
      go (n - 1) (saw_recompile || st.Live.mode = Live.Recompile)
  in
  let saw = go (Jedd_analyses.Common.pad_for_headroom p.P.n_classes + 2) false in
  Alcotest.(check bool) "capacity overflow recompiles" true saw;
  check_results "post-recompile" (from_scratch (Live.program live))
    (Live.results live)

let test_live_random_sequence () =
  let p = small () in
  let live = Live.create p in
  let rng = Random.State.make [| 0xbeef; 42 |] in
  for i = 1 to 12 do
    let e = Edit.random rng (Live.program live) in
    let _st = Live.update live e in
    check_results
      (Printf.sprintf "random edit %d (%s)" i (Edit.describe e))
      (from_scratch (Live.program live))
      (Live.results live)
  done

let test_live_random_additions_stay_incremental () =
  let p = tiny () in
  let live = Live.create p in
  let rng = Random.State.make [| 7; 7; 7 |] in
  for _ = 1 to 10 do
    let e = Edit.random ~removals:false rng (Live.program live) in
    let st = Live.update live e in
    Alcotest.(check bool)
      (Edit.describe e ^ ": additions never rebuild")
      true
      (match st.Live.mode with
      | Live.Rebuild -> false
      | Live.Incremental | Live.Partial | Live.Recompile -> true)
  done;
  check_results "after additions" (from_scratch (Live.program live))
    (Live.results live)

let suite =
  [
    Alcotest.test_case "semi-naive = naive (incore)" `Quick
      test_semi_naive_matches_naive_incore;
    Alcotest.test_case "no-op resume does no work" `Quick
      test_fixpoint_stats_shape;
    Alcotest.test_case "edit validation" `Quick test_edit_validation;
    Alcotest.test_case "edit tombstones" `Quick test_edit_tombstones;
    Alcotest.test_case "live cold = combined" `Quick
      test_live_cold_matches_combined;
    Alcotest.test_case "live single edits (incremental)" `Quick
      test_live_single_edits;
    Alcotest.test_case "live add-method (partial)" `Quick
      test_live_method_edit_partial;
    Alcotest.test_case "live removal (rebuild)" `Quick
      test_live_removal_rebuild;
    Alcotest.test_case "live capacity overflow (recompile)" `Slow
      test_live_capacity_recompile;
    Alcotest.test_case "live random edit sequence" `Slow
      test_live_random_sequence;
    Alcotest.test_case "live random additions" `Quick
      test_live_random_additions_stay_incremental;
  ]
