(* Subset-based, field-sensitive points-to analysis in Jedd — the
   BDD algorithm of Berndl et al. [5], which §5 reports both hand-coded
   (our [Pointsto_baseline]) and in Jedd (this module, Table 2).

   The mutually recursive pt/fieldpt fixed point is driven semi-naively
   through Incr.Fixpoint: every occurrence of a recursive relation in a
   rule body gets a delta variant (delta in that position, the full
   accumulator elsewhere; the accumulator always already absorbs the
   delta, so delta×delta derivations are covered).  [runNaive] keeps
   the paper's original loop for the differential suite. *)

module P = Jedd_minijava.Program
module Interp = Jedd_lang.Interp
module R = Jedd_relation.Relation
module Fixpoint = Jedd_incr.Fixpoint

let source =
  "class PointsTo {\n\
  \  <var:V1, heap:H1> alloc;\n\
  \  <src:V1, dst:V2> assign;\n\
  \  <base:V1, field:F1, dst:V2> load;\n\
  \  <src:V1, base:V2, field:F1> store;\n\
  \  <var:V1, heap:H1> pt = 0B;\n\
  \  <baseheap:H2, field:F1, heap:H1> fieldpt = 0B;\n\
  \  public <var:V1, heap:H1> seedPt() {\n\
  \    return alloc;\n\
  \  }\n\
  \  // delta variants of the copy and load rules (delta in the pt and\n\
  \  // fieldpt positions respectively), against the full accumulators\n\
  \  public <var:V1, heap:H1> stepPt( <var:V1, heap:H1> dpt,\n\
  \                                   <baseheap:H2, field:F1, heap:H1> dfp ) {\n\
  \    // copy rule: dst points to whatever src newly points to\n\
  \    <var:V1, heap:H1> out = (dst=>var) (assign{src} <> dpt{var});\n\
  \    // load rule, delta in the base points-to position\n\
  \    <var:V1, baseheap:H2> dptb2 = (heap=>baseheap) dpt;\n\
  \    <field:F1, dst:V2, baseheap:H2> ld1d = load{base} <> dptb2{var};\n\
  \    out |= (dst=>var) (ld1d{baseheap, field} <> fieldpt{baseheap, field});\n\
  \    // load rule, delta in the fieldpt position\n\
  \    <var:V1, baseheap:H2> ptb2 = (heap=>baseheap) pt;\n\
  \    <field:F1, dst:V2, baseheap:H2> ld1 = load{base} <> ptb2{var};\n\
  \    out |= (dst=>var) (ld1{baseheap, field} <> dfp{baseheap, field});\n\
  \    return out;\n\
  \  }\n\
  \  // delta variants of the store rule (delta in either pt position)\n\
  \  public <baseheap:H2, field:F1, heap:H1> stepFieldpt( <var:V1, heap:H1> dpt ) {\n\
  \    <base:V2, field:F1, heap:H1> st1d = store{src} <> dpt{var};\n\
  \    <var:V2, baseheap:H2> ptb = (heap=>baseheap) pt;\n\
  \    <baseheap:H2, field:F1, heap:H1> out = st1d{base} <> ptb{var};\n\
  \    <base:V2, field:F1, heap:H1> st1 = store{src} <> pt{var};\n\
  \    <var:V2, baseheap:H2> dptb = (heap=>baseheap) dpt;\n\
  \    out |= st1{base} <> dptb{var};\n\
  \    return out;\n\
  \  }\n\
  \  public void runNaive() {\n\
  \    pt = alloc;\n\
  \    <var:V1, heap:H1> old;\n\
  \    do {\n\
  \      old = pt;\n\
  \      // copy rule: dst points to whatever src points to\n\
  \      pt |= (dst=>var) (assign{src} <> pt{var});\n\
  \      // store rule: o.f = v\n\
  \      <base:V2, field:F1, heap:H1> st1 = store{src} <> pt{var};\n\
  \      <var:V2, baseheap:H2> ptb = (heap=>baseheap) pt;\n\
  \      fieldpt |= st1{base} <> ptb{var};\n\
  \      // load rule: v = o.f (profiler-tuned: keep var in V1 here,\n\
  \      // saving a replace per iteration, as in the hand-coded version)\n\
  \      <var:V1, baseheap:H2> ptb2 = (heap=>baseheap) pt;\n\
  \      <field:F1, dst:V2, baseheap:H2> ld1 = load{base} <> ptb2{var};\n\
  \      pt |= (dst=>var) (ld1{baseheap, field} <> fieldpt{baseheap, field});\n\
  \    } while (pt != old);\n\
  \  }\n\
  }\n"

let load_facts inst (p : P.t) =
  Common.set_fact inst "PointsTo.alloc"
    (List.map (fun (v, h) -> [ v; h ]) p.P.allocs);
  Common.set_fact inst "PointsTo.assign"
    (List.map (fun (s, d) -> [ s; d ]) p.P.assigns);
  Common.set_fact inst "PointsTo.load"
    (List.map (fun (b, f, d) -> [ b; f; d ]) p.P.loads);
  Common.set_fact inst "PointsTo.store"
    (List.map (fun (s, b, f) -> [ s; b; f ]) p.P.stores)

(* Semi-naive solve from the current pt/fieldpt state: cold from 0B,
   a warm resume after the input facts have grown. *)
let solve ?on_iter inst =
  let pt0 = Interp.get_field inst "PointsTo.pt" in
  let fp0 = Interp.get_field inst "PointsTo.fieldpt" in
  let seed_pt = Common.call_rel inst "PointsTo.seedPt" [] in
  let seed_fp = Common.empty_rel inst "PointsTo.fieldpt" in
  let step ~deltas ~accs =
    Interp.set_field inst "PointsTo.pt" accs.(0);
    Interp.set_field inst "PointsTo.fieldpt" accs.(1);
    let cpt =
      Common.call_rel inst "PointsTo.stepPt"
        [ Common.arg deltas.(0); Common.arg deltas.(1) ]
    in
    let cfp =
      Common.call_rel inst "PointsTo.stepFieldpt" [ Common.arg deltas.(0) ]
    in
    [| cpt; cfp |]
  in
  let final, stats =
    Fixpoint.solve ?on_iter ~accs:[| pt0; fp0 |]
      ~seed:[| seed_pt; seed_fp |] ~step ()
  in
  R.release seed_pt;
  R.release seed_fp;
  Interp.set_field inst "PointsTo.pt" final.(0);
  Interp.set_field inst "PointsTo.fieldpt" final.(1);
  Array.iter R.release final;
  stats

let run inst = ignore (solve inst)
let run_naive inst = ignore (Interp.call inst "PointsTo.runNaive" [])

let results inst = Common.get_tuples inst "PointsTo.pt"
let field_results inst = Common.get_tuples inst "PointsTo.fieldpt"
