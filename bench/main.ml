(* Benchmark harness: regenerates the tables and figures of the paper's
   evaluation and the ablations listed in DESIGN.md.  End-to-end timing
   of the system (compile, solve, query, edit) is jbench's job.

     dune exec --profile release bench/main.exe -- COMMAND...

     table1            Table 1: size of the domain assignment problem
     table2            Table 2: hand-coded vs Jedd points-to running time
     fig7              Figure 7: constraint graph of the Figure 4 join
     compactness       the §5 lines-of-code comparison
     ablation-compose  §2.2.3: relational product vs join-then-project
     ablation-replace  §3.3.2: replaces kept vs the naive translation
     ablation-order    §3.3.1: interleaved vs consecutive bit blocks
     ablation-memory   §4.2: eager releases vs leaking handles
     reorder           order optimizer off vs on, good vs bad order

   Commands run in the order given; with none, every command runs.  An
   unknown command exits 2.  [table2] and [reorder] exit 1 when their
   correctness checks fail. *)

module Workload = Jedd_minijava.Workload
module Suite = Jedd_analyses.Suite
module Baseline = Jedd_analyses.Pointsto_baseline
module Pointsto = Jedd_analyses.Pointsto
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module C = Jedd_lang.Constraints
module E = Jedd_lang.Encode
module M = Jedd_bdd.Manager

let line () = print_endline (String.make 100 '-')

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* ----------------------------------------------------------------- *)
(* Table 1: size of the physical domain assignment problem            *)
(* ----------------------------------------------------------------- *)

let table1 () =
  line ();
  print_endline "Table 1: Size of the physical domain assignment problem";
  print_endline
    "(paper anchors: the combined analyses have 613 exprs / 1586 attributes;\n\
     zChaff solved the largest instance in 4.6 s on a 1833 MHz Athlon)";
  line ();
  Printf.printf "%-24s %6s %6s %5s | %8s %8s %10s | %9s %8s %9s | %10s %8s\n"
    "Analysis" "Exprs" "Attrs" "Doms" "Conflict" "Equality" "Assignment"
    "Variables" "Clauses" "Literals" "Encode (s)" "CDCL (s)";
  line ();
  let p = Workload.generate (Workload.profile_named "javac") in
  let row name sources =
    match Driver.compile sources with
    | Error e ->
      Printf.printf "%-24s FAILED: %s\n" name (Driver.error_to_string e)
    | Ok c ->
      let st = c.Driver.constraint_stats in
      let sat = c.Driver.assignment.E.stats in
      Printf.printf
        "%-24s %6d %6d %5d | %8d %8d %10d | %9d %8d %9d | %10.4f %8.4f\n"
        name st.C.n_rel_exprs st.C.n_attrs st.C.n_physdoms st.C.n_conflict
        st.C.n_equality st.C.n_assignment sat.E.sat_vars sat.E.sat_clauses
        sat.E.sat_literals sat.E.encode_seconds sat.E.solve_seconds
  in
  List.iter
    (fun (name, _) -> row name [ (name, Suite.source_for p name) ])
    Suite.analyses;
  row "All 5 combined" [ ("combined.jedd", Suite.combined_source p) ];
  line ();
  print_endline
    "Shape check: the combined program dominates every single analysis in\n\
     every column, and solving time stays negligible next to building the\n\
     system — the paper's 'very acceptable' conclusion.\n"


(* ----------------------------------------------------------------- *)
(* Table 2: hand-coded vs Jedd points-to analysis                     *)
(* ----------------------------------------------------------------- *)

(* Median, minimum and maximum of a few timings. *)
let median_range ts =
  let a = Array.of_list ts in
  Array.sort compare a;
  (a.(Array.length a / 2), a.(0), a.(Array.length a - 1))

let table2 () =
  let reps = 3 in
  line ();
  print_endline "Table 2: Running time, hand-coded BDD vs Jedd points-to";
  print_endline
    "(paper: javac 3.4/3.5 s, compress 22.2/22.4 s, javac-1.3.1 26.2/26.3 s,\n\
     sablecc 25.8/26.1 s, jedit 39.7/41.3 s — overhead 0.5%..4%)";
  Printf.printf
    "Both sides run the paper's naive fixed point; Jedd's semi-naive solve\n\
     is an algorithmic gain, shown apart.  Seconds of execution (compile\n\
     and fact loading excluded): median [min-max] of %d interleaved runs.\n"
    reps;
  line ();
  Printf.printf "%-9s %22s %22s %9s | %22s %6s %8s\n" "Benchmark"
    "Hand-coded naive" "Jedd naive" "Overhead" "Jedd semi-naive" "Gain"
    "pt";
  line ();
  let mismatches = ref 0 in
  List.iter
    (fun (prof : Workload.profile) ->
      let p = Workload.generate prof in
      (* jeddc runs at build time; the timed region is execution only *)
      let compiled = Suite.compile_one p "Points-to Analysis" in
      let timed f =
        Gc.full_major ();
        snd (wall f)
      in
      let hand () =
        let b = Baseline.create p in
        let t = timed (fun () -> Baseline.solve b) in
        let n = List.length (Baseline.pt_tuples b) in
        Baseline.destroy b;
        (t, n)
      in
      let jedd solve =
        let inst = Driver.instantiate ~node_capacity:(1 lsl 18) compiled in
        Pointsto.load_facts inst p;
        let t = timed (fun () -> solve inst) in
        (t, List.length (Pointsto.results inst))
      in
      let runs =
        List.init reps (fun _ ->
            let h = hand () in
            let n = jedd (fun i -> Pointsto.run_naive i) in
            let s = jedd (fun i -> Pointsto.run i) in
            (h, n, s))
      in
      let cell pick = median_range (List.map (fun r -> fst (pick r)) runs) in
      let tuples = List.concat_map (fun (h, n, s) -> [ snd h; snd n; snd s ]) runs in
      let pt = List.hd tuples in
      let agree = List.for_all (( = ) pt) tuples in
      if not agree then incr mismatches;
      let ((h, _, _) as hc) = cell (fun (h, _, _) -> h) in
      let ((n, _, _) as nc) = cell (fun (_, n, _) -> n) in
      let ((s, _, _) as sc) = cell (fun (_, _, s) -> s) in
      let show (m, lo, hi) = Printf.sprintf "%.3f [%.3f-%.3f]" m lo hi in
      Printf.printf "%-9s %22s %22s %+8.1f%% | %22s %5.2fx %8d%s\n%!"
        prof.Workload.name (show hc) (show nc)
        ((n -. h) /. h *. 100.0)
        (show sc) (n /. s) pt
        (if agree then "" else "  (MISMATCH!)"))
    Workload.profiles;
  line ();
  print_endline
    "Overhead compares like with like (naive against naive); Gain is the\n\
     Jedd naive median over the semi-naive one.  All runs of a row must\n\
     compute the same number of points-to tuples.\n";
  if !mismatches > 0 then begin
    Printf.printf "FAIL: %d benchmark(s) disagree on the points-to relation\n"
      !mismatches;
    exit 1
  end

(* ----------------------------------------------------------------- *)
(* Figure 7: the constraint graph of the Figure 4 join                *)
(* ----------------------------------------------------------------- *)

let fig7_source =
  "domain Type 4;\n\
   domain Signature 4;\n\
   domain Method 4;\n\
   attribute type : Type;\n\
   attribute rectype : Type;\n\
   attribute tgttype : Type;\n\
   attribute signature : Signature;\n\
   attribute method : Method;\n\
   physdom T1;\nphysdom T2;\nphysdom S1;\nphysdom M1;\n\
   class Fig7 {\n\
   \  <type, signature, method> declaresMethod;\n\
   \  <rectype, signature, tgttype> toResolve;\n\
   \  public void go() {\n\
   \    <rectype:T1, signature:S1, tgttype:T2, method:M1> resolved =\n\
   \      toResolve{tgttype, signature} >< declaresMethod{type, signature};\n\
   \  }\n\
   }\n"

let fig7 () =
  line ();
  print_endline
    "Figure 7: physical-domain-assignment constraints for Fig. 4 lines 6-7";
  line ();
  match Driver.compile [ ("Fig7.jedd", fig7_source) ] with
  | Error e -> print_endline (Driver.error_to_string e)
  | Ok c ->
    let st = c.Driver.constraint_stats in
    Printf.printf
      "constraint graph: %d conflict edges, %d equality edges, %d assignment edges\n\n"
      st.C.n_conflict st.C.n_equality st.C.n_assignment;
    print_endline
      "resulting components (each attribute shares its component's domain,\n\
       so every dummy replace disappears):";
    let phys site attr =
      (c.Driver.assignment.E.phys_of site attr).Jedd_lang.Tast.p_name
    in
    let show_var v attrs =
      List.iter
        (fun a ->
          Printf.printf "  %-24s %-10s -> %s\n" v a (phys (C.S_var v) a))
        attrs
    in
    show_var "Fig7.toResolve" [ "rectype"; "signature"; "tgttype" ];
    show_var "Fig7.declaresMethod" [ "type"; "signature"; "method" ];
    show_var "Fig7.go.resolved" [ "rectype"; "signature"; "tgttype"; "method" ];
    print_endline
      "\nExpected partition (paper): {rectype}->T1, {signatures}->S1,\n\
       {tgttype,type}->T2, {method}->M1 — no replace operations remain.\n"

(* ----------------------------------------------------------------- *)
(* §5 compactness: lines of Jedd vs lines of conventional code        *)
(* ----------------------------------------------------------------- *)

let ncloc text =
  List.length
    (List.filter
       (fun l ->
         let l = String.trim l in
         String.length l > 0
         && not (String.length l >= 2 && String.sub l 0 2 = "//")
         && not (String.length l >= 2 && String.sub l 0 2 = "(*"))
       (String.split_on_char '\n' text))

let read_file path =
  let ic = open_in path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let compactness () =
  line ();
  print_endline
    "§5 compactness: the side-effect analysis in Jedd vs conventional code";
  print_endline "(paper: 803 non-comment lines of Java vs 124 lines of Jedd)";
  line ();
  let jedd_lines = ncloc Jedd_analyses.Sideeffect.source in
  let conventional =
    List.fold_left
      (fun acc path -> match read_file path with
        | s -> acc + ncloc s
        | exception _ -> acc)
      0
      [ "lib/minijava/reference.ml"; "../lib/minijava/reference.ml" ]
  in
  Printf.printf "  Jedd side-effect analysis      : %d lines\n" jedd_lines;
  Printf.printf
    "  conventional (sets + worklists): %d lines for all five analyses\n"
    conventional;
  if conventional > 0 then
    Printf.printf
      "  per-analysis conventional ~ %d lines -> Jedd is ~%.1fx more compact\n\n"
      (conventional / 5)
      (float_of_int (conventional / 5) /. float_of_int (max 1 jedd_lines))

(* ----------------------------------------------------------------- *)
(* Ablations                                                          *)
(* ----------------------------------------------------------------- *)

module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Fdd = Jedd_bdd.Fdd

let ablation_compose () =
  line ();
  print_endline
    "Ablation (§2.2.3): compose (one-pass relational product) vs\n\
     join-then-project, measured as two complete points-to solves";
  line ();
  Printf.printf "%-12s %14s %20s %10s %14s\n" "Benchmark" "relprod (s)"
    "join+project (s)" "speedup" "peak nodes";
  List.iter
    (fun name ->
      let p = Workload.generate (Workload.profile_named name) in
      let b1 = Baseline.create p in
      let (), t_rel = wall (fun () -> Baseline.solve ~use_relprod:true b1) in
      let b2 = Baseline.create p in
      let (), t_jp = wall (fun () -> Baseline.solve ~use_relprod:false b2) in
      let peak1 = M.peak_nodes (Baseline.manager b1) in
      let peak2 = M.peak_nodes (Baseline.manager b2) in
      Printf.printf "%-12s %14.3f %20.3f %9.2fx %7d/%7d\n" name t_rel t_jp
        (t_jp /. t_rel) peak1 peak2;
      Baseline.destroy b1;
      Baseline.destroy b2)
    [ "javac"; "sablecc" ];
  (* The effect §2.2.3 describes appears when the materialised
     conjunction is much larger than the projected result: compose two
     dense random binary relations R(x,y) ; S(y,z). *)
  let m = M.create ~node_capacity:(1 lsl 18) () in
  let bits = 9 in
  let bx = Fdd.extdomain_bits m bits in
  let by = Fdd.extdomain_bits m bits in
  let bz = Fdd.extdomain_bits m bits in
  let st = Random.State.make [| 424242 |] in
  let random_rel b1 b2 n =
    let acc = ref M.zero in
    for _ = 1 to n do
      let tup =
        Ops.band m
          (Fdd.ithvar m b1 (Random.State.int st (1 lsl bits)))
          (Fdd.ithvar m b2 (Random.State.int st (1 lsl bits)))
      in
      acc := Ops.bor m !acc tup
    done;
    M.addref m !acc
  in
  let r = random_rel bx by 4000 in
  let s = random_rel by bz 4000 in
  let y_cube = M.addref m (Fdd.domain_cube m by) in
  let result_rel, t_rel =
    wall (fun () ->
        M.clear_caches m;
        Quant.relprod m r s y_cube)
  in
  let result_jp, t_jp =
    wall (fun () ->
        M.clear_caches m;
        let conj = Ops.band m r s in
        Quant.exist m conj y_cube)
  in
  assert (result_rel = result_jp);
  Printf.printf
    "\n  dense composition R;S (4000-tuple random relations, 9-bit domains):\n";
  Printf.printf "    relprod        : %.4f s\n" t_rel;
  Printf.printf "    join + project : %.4f s  -> relprod %.2fx faster\n" t_jp
    (t_jp /. t_rel);
  print_endline
    "  (join-then-project materialises the full conjunction before\n\
     quantifying; the relational product never builds it — the reason\n\
     §2.2.3 gives for having both >< and <> in the language.  On the\n\
     points-to fixpoints above the intermediate stays small, so the two\n\
     strategies tie; dense compositions show the gap.)\n"

let ablation_replace () =
  line ();
  print_endline
    "Ablation (§3.3.2): replaces kept by the assignment vs the naive\n\
     wrap-everything translation";
  line ();
  let p = Workload.generate (Workload.profile_named "compress") in
  let compiled = Suite.compile_one p "Points-to Analysis" in
  let inst = Driver.instantiate compiled in
  let recorder = Jedd_profiler.Recorder.create () in
  Jedd_profiler.Recorder.attach recorder (Interp.universe inst)
    ~level:Jedd_relation.Universe.Counts;
  Pointsto.load_facts inst p;
  Pointsto.run inst;
  Jedd_profiler.Recorder.detach (Interp.universe inst);
  let rows = Jedd_profiler.Recorder.rows recorder in
  let total = List.length rows in
  let replaces =
    List.length
      (List.filter
         (fun (r : Jedd_profiler.Recorder.row) ->
           r.event.Jedd_relation.Universe.op = "replace")
         rows)
  in
  let st = compiled.Driver.constraint_stats in
  Printf.printf "  dummy replaces in the wrap-everything translation : %d sites\n"
    st.C.n_assignment;
  Printf.printf
    "  replace operations actually executed (whole run)  : %d of %d ops\n"
    replaces total;
  print_endline
    "  (the naive translation replaces at every consumption point on every\n\
     iteration; the SAT assignment keeps only the layout changes the\n\
     dataflow genuinely needs)\n"

let ablation_order () =
  line ();
  print_endline
    "Ablation (§3.3.1): bit ordering — interleaved vs consecutive blocks";
  line ();
  let n = 10 in
  let run interleaved =
    let m = M.create ~node_capacity:(1 lsl 16) () in
    let b1, b2 =
      if interleaved then
        match Fdd.extdomains_interleaved m [ 1 lsl n; 1 lsl n ] with
        | [ a; b ] -> (a, b)
        | _ -> assert false
      else (Fdd.extdomain_bits m n, Fdd.extdomain_bits m n)
    in
    let eq = Fdd.equality m b1 b2 in
    Jedd_bdd.Count.nodecount m eq
  in
  let inter = run true and consec = run false in
  Printf.printf "  equality relation over two %d-bit domains:\n" n;
  Printf.printf "    interleaved bits : %6d BDD nodes (linear)\n" inter;
  Printf.printf "    consecutive bits : %6d BDD nodes (exponential)\n" consec;
  Printf.printf "    ratio            : %.0fx\n\n"
    (float_of_int consec /. float_of_int inter)

let ablation_memory () =
  line ();
  print_endline "Ablation (§4.2): eager releases vs leaking handles";
  line ();
  let chain release_temps =
    let u = Jedd_relation.Universe.create () in
    let d = Jedd_relation.Domain.declare ~name:"D" ~size:4096 () in
    let ph = Jedd_relation.Physdom.declare u ~name:"P" ~bits:12 in
    let a = Jedd_relation.Attribute.declare ~name:"a" ~domain:d in
    let sch =
      Jedd_relation.Schema.make [ { Jedd_relation.Schema.attr = a; phys = ph } ]
    in
    let acc = ref (Jedd_relation.Relation.empty u sch) in
    let keep_alive = ref [] in
    for i = 0 to 400 do
      let t = Jedd_relation.Relation.tuple u sch [ i * 7 mod 4096 ] in
      let next = Jedd_relation.Relation.union !acc t in
      Jedd_relation.Relation.release t;
      if release_temps then Jedd_relation.Relation.release !acc
      else keep_alive := !acc :: !keep_alive;
      acc := next
    done;
    let m = Jedd_relation.Universe.manager u in
    M.gc m;
    (M.live_nodes m, M.peak_nodes m)
  in
  let live_e, peak_e = chain true in
  let live_l, peak_l = chain false in
  Printf.printf
    "  union chain (401 steps), eager release : %6d live / %6d peak nodes\n"
    live_e peak_e;
  Printf.printf
    "  union chain (401 steps), leak handles  : %6d live / %6d peak nodes\n"
    live_l peak_l;
  print_endline
    "  (eager reference-count drops let the BDD GC reclaim dead\n\
     intermediate relations; holding handles pins every intermediate,\n\
     exactly the §4.2 failure mode Jedd's containers avoid)\n"

(* ----------------------------------------------------------------- *)
(* Reorder: points-to under a deliberately bad declaration order,     *)
(* variable-order optimizer off vs on, with the good order as control *)
(* ----------------------------------------------------------------- *)

(* V1/V2 and H1/H2 pushed to opposite ends of the order: every copy
   rule's replace and every join over the pair pays for the spread —
   the worst case §3.3.1 warns about. *)
let bad_physdom_order =
  [ "V1"; "T1"; "T2"; "T3"; "S1"; "M1"; "H1"; "M2"; "V2"; "C1"; "F1"; "H2" ]

type reorder_run = {
  rr_label : string;
  rr_seconds : float;
  rr_tuples : int;
  rr_peak : int;
  rr_live : int;
  rr_reorders : int;
  rr_swaps : int;
  rr_aborts : int;
}

let reorder_run ~label ?physdom_order ~reorder name =
  Printf.eprintf "[reorder] %s (%s)...\n%!" label name;
  let p = Workload.generate (Workload.profile_named name) in
  let source =
    Jedd_analyses.Common.preamble ?physdom_order p
    ^ Pointsto.source
  in
  let compiled =
    match Driver.compile [ ("PointsTo.jedd", source) ] with
    | Ok c -> c
    | Error e -> failwith (Driver.error_to_string e)
  in
  let inst = Driver.instantiate ~node_capacity:(1 lsl 18) compiled in
  Pointsto.load_facts inst p;
  let (), secs = wall (fun () -> Pointsto.run ~reorder inst) in
  Printf.eprintf "[reorder]   ... %.2fs\n%!" secs;
  let tuples = List.length (Pointsto.results inst) in
  let u = Interp.universe inst in
  let m = Jedd_relation.Universe.manager u in
  (match M.check_invariants m with
  | [] -> ()
  | errs ->
    List.iter
      (fun e -> Printf.eprintf "reorder invariant violation: %s\n" e)
      errs;
    exit 1);
  M.gc m;
  let engine = Jedd_relation.Universe.reorder_engine u in
  let aborts =
    List.fold_left
      (fun acc (e : Jedd_reorder.Reorder.event) -> acc + e.aborts)
      0
      (Jedd_reorder.Reorder.events engine)
  in
  {
    rr_label = label;
    rr_seconds = secs;
    rr_tuples = tuples;
    rr_peak = M.peak_nodes m;
    rr_live = M.live_nodes m;
    rr_reorders = M.reorder_count m;
    rr_swaps = M.swap_count m;
    rr_aborts = aborts;
  }

(* Sequenced with lets: OCaml evaluates list elements right-to-left,
   which would run the configurations in a confusing order. *)
let reorder_bench () =
  let name = "javac" in
  line ();
  Printf.printf
    "Reorder: points-to (%s) under good vs bad declaration order\n" name;
  line ();
  let good_off = reorder_run ~label:"good-order/reorder-off" ~reorder:false name in
  let good_on = reorder_run ~label:"good-order/reorder-on" ~reorder:true name in
  let bad_off =
    reorder_run ~label:"bad-order/reorder-off"
      ~physdom_order:bad_physdom_order ~reorder:false name
  in
  let bad_on =
    reorder_run ~label:"bad-order/reorder-on"
      ~physdom_order:bad_physdom_order ~reorder:true name
  in
  let runs = [ good_off; good_on; bad_off; bad_on ] in
  Printf.printf "%-26s %9s %9s %10s %10s %9s %7s %7s\n" "configuration"
    "seconds" "tuples" "peak" "live" "reorders" "swaps" "aborts";
  List.iter
    (fun r ->
      Printf.printf "%-26s %9.3f %9d %10d %10d %9d %7d %7d\n" r.rr_label
        r.rr_seconds r.rr_tuples r.rr_peak r.rr_live r.rr_reorders r.rr_swaps
        r.rr_aborts)
    runs;
  Printf.printf "bad-order peak nodes %d -> %d (%.2fx)\n" bad_off.rr_peak
    bad_on.rr_peak
    (float_of_int bad_off.rr_peak /. float_of_int (max 1 bad_on.rr_peak));
  if List.exists (fun r -> r.rr_tuples <> good_off.rr_tuples) runs then begin
    Printf.printf "FAIL: the four configurations disagree on the fixed point\n";
    exit 1
  end

(* ----------------------------------------------------------------- *)

let commands =
  [
    ("table1", table1);
    ("table2", table2);
    ("fig7", fig7);
    ("compactness", compactness);
    ("ablation-compose", ablation_compose);
    ("ablation-replace", ablation_replace);
    ("ablation-order", ablation_order);
    ("ablation-memory", ablation_memory);
    ("reorder", reorder_bench);
  ]

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> List.iter (fun (_, f) -> f ()) commands
  | args ->
    (match List.filter (fun a -> not (List.mem_assoc a commands)) args with
    | [] -> ()
    | unknown ->
      Printf.eprintf "bench: unknown command %s\nvalid commands: %s\n"
        (String.concat ", " unknown)
        (String.concat " " (List.map fst commands));
      exit 2);
    List.iter (fun a -> (List.assoc a commands) ()) args
