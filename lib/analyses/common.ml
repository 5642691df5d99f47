(* Shared declarations for the five whole-program analyses (§5).

   Each analysis is a Jedd class; they share one set of domains,
   attributes and physical domains, so they can be compiled separately
   (rows 1–5 of Table 1) or concatenated into one program ("All 5
   combined").  Domain sizes depend on the analysed program, so the
   preamble is generated per program. *)

module P = Jedd_minijava.Program

(* Declaration order fixes the relative bit order of the physical
   domains for the whole run; this order keeps the pairs the analyses
   copy between (V1/V2, H1/H2, the type domains) adjacent. *)
let physdom_order =
  [ "T1"; "T2"; "T3"; "S1"; "M1"; "M2"; "V1"; "V2"; "H1"; "H2"; "F1"; "C1" ]

(* Call-site ids of removed sites stay allocated (Incr.Edit tombstone
   semantics), so the CallSite domain is sized by the largest id, not
   the list length.  For freshly generated programs the two agree. *)
let n_callsites (p : P.t) =
  List.fold_left (fun a (c : P.call_site) -> max a (c.P.cs_id + 1)) 0 p.P.calls

(* [~headroom:true] pads every domain so a live universe can absorb a
   run of edits (new classes/vars/heap sites/call sites) without
   outgrowing its compiled bit widths.  The analyses never complement a
   relation (no 1B), so spare domain values cannot appear in any result:
   padded and unpadded universes compute identical tuple sets. *)
let pad_for_headroom n = n + max 8 (n / 4)

let preamble ?(headroom = false) (p : P.t) =
  let d name size =
    let size = if headroom then pad_for_headroom size else size in
    Printf.sprintf "domain %s %d;\n" name (max 2 size)
  in
  let a name dom = Printf.sprintf "attribute %s : %s;\n" name dom in
  String.concat ""
    ([
      d "Type" p.P.n_classes;
      d "Sig" p.P.n_sigs;
      d "Method" p.P.n_methods;
      d "Var" p.P.n_vars;
      d "Heap" p.P.n_heap;
      d "Field" p.P.n_fields;
      d "CallSite" (n_callsites p);
      (* type-domain attributes *)
      a "type" "Type";
      a "tgttype" "Type";
      a "subtype" "Type";
      a "supertype" "Type";
      (* others *)
      a "signature" "Sig";
      a "method" "Method";
      a "srcmethod" "Method";
      a "var" "Var";
      a "src" "Var";
      a "dst" "Var";
      a "base" "Var";
      a "heap" "Heap";
      a "baseheap" "Heap";
      a "field" "Field";
      a "callsite" "CallSite";
    ]
    @ List.map (fun n -> Printf.sprintf "physdom %s;\n" n) physdom_order)

(* Build a relation for an instantiated program from fact tuples, at the
   layout of the given field, and install it. *)
let set_fact inst field tuples =
  let u = Jedd_lang.Interp.universe inst in
  let schema = Jedd_lang.Interp.schema_of_var inst field in
  let r = Jedd_relation.Relation.of_tuples u schema tuples in
  Jedd_lang.Interp.set_field inst field r;
  Jedd_relation.Relation.release r

let get_tuples inst field =
  Jedd_relation.Relation.tuples (Jedd_lang.Interp.get_field inst field)

(* -- helpers for the semi-naive drivers -------------------------------- *)

(* Call a relation-returning Jedd method; the result is owned. *)
let call_rel inst meth args =
  match Jedd_lang.Interp.call inst meth args with
  | Some r -> r
  | None -> failwith (meth ^ ": expected a relation result")

(* An owned argument for Interp.call (which consumes its relation
   arguments when the callee's frame dies). *)
let arg r = Jedd_lang.Interp.VRel (Jedd_relation.Relation.dup r)

let empty_rel inst field =
  Jedd_relation.Relation.empty
    (Jedd_lang.Interp.universe inst)
    (Jedd_lang.Interp.schema_of_var inst field)
