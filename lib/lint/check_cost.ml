(* JL201/JL202: cost-model lints built on [Jedd_cost].

   JL201 marks forced replace sites (the JL007 verdict) that execute
   inside a recognised fixed-point loop: no physical-domain assignment
   can remove them — the unsat core is the blocking constraint chain —
   so they run once per solver iteration and dominate the §6.1 replace
   profile.  Informational, like the rest of the replace audit:
   fixed-point solvers legitimately pay for forced copies.

   JL202 warns about joins whose result layout is wide enough that the
   predicted BDD node count ([Jedd_cost.Shape], optionally sharpened by
   profiler hints) signals a blowup; programs that project attributes
   away before joining stay under the threshold. *)

open Jedd_lang
module JDriver = Jedd_lang.Driver
module Freq = Jedd_cost.Freq
module Shape = Jedd_cost.Shape

(* Result layouts narrower than this never warn: every workload the
   repo's own lint gate runs (tiny, shapes.mjava, the examples) stays
   well under 32 bits, while a genuinely large join — three 16-bit
   attributes, say — is over it. *)
let default_threshold_bits = 32

let default_threshold_nodes = 1 lsl 20

let check ?(threshold_bits = default_threshold_bits)
    ?(threshold_nodes = default_threshold_nodes) ?hints
    (compiled : JDriver.compiled)
    (audit : Check_replace.audit_entry list) : Diag.t list =
  let prog = compiled.JDriver.tprog in
  let freq = Freq.analyze prog in
  let shape = Shape.analyze ?hints prog compiled.JDriver.assignment in
  let jl201 =
    List.filter_map
      (fun (e : Check_replace.audit_entry) ->
        let eid = e.Check_replace.site.Lower.rs_eid in
        match e.Check_replace.verdict with
        | Check_replace.V_forced core when Freq.in_fixpoint freq eid ->
          let w = Freq.weight freq eid in
          Some
            (Diag.make
               ~notes:
                 (Printf.sprintf
                    "static weight %d (loop depth %d); no physical-domain \
                     assignment can eliminate this copy"
                    w (Freq.depth freq eid)
                 :: List.map (fun c -> "blocked because " ^ c) core)
               ~code:"JL201" ~severity:Diag.Info
               ~pos:e.Check_replace.site.Lower.rs_pos
               (Printf.sprintf
                  "forced replace (BDD copy) inside a fixed-point loop (in \
                   %s)"
                  e.Check_replace.site.Lower.rs_method))
        | _ -> None)
      audit
  in
  let jl202 =
    List.filter_map
      (fun (e : Tast.texpr) ->
        match e.Tast.edesc with
        | Tast.TJoin _ -> (
          match Shape.estimate shape e.Tast.eid with
          | Some est
            when est.Shape.bits >= threshold_bits
                 && est.Shape.nodes >= threshold_nodes ->
            Some
              (Diag.make
                 ~notes:
                   [
                     Printf.sprintf
                       "predicted %d BDD nodes over a %d-bit result layout"
                       est.Shape.nodes est.Shape.bits;
                     "project unused attributes away before the join, or \
                      split it over narrower intermediate relations";
                   ]
                 ~code:"JL202" ~severity:Diag.Warning ~pos:e.Tast.epos
                 (Printf.sprintf
                    "join result layout spans %d bits; predicted node count \
                     signals a blowup"
                    est.Shape.bits))
          | _ -> None)
        | _ -> None)
      prog.Tast.all_exprs
  in
  jl201 @ jl202
