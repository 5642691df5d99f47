(* Hand-coded BDD points-to analysis: the same algorithm as
   [Pointsto.source] written directly against the BDD package, with
   manual physical-domain management, manual replaces, and manual
   reference counting — the role the hand-written C++ implementation of
   [5] plays as the baseline of Table 2.

   Everything Jedd automates is done by hand here: the V1/V2/H1/H2/F
   variable blocks are fixed explicitly, every replace is written out,
   and reference counts are adjusted around each operation. *)

module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Rep = Jedd_bdd.Replace
module Fdd = Jedd_bdd.Fdd
module Count = Jedd_bdd.Count
module P = Jedd_minijava.Program

type t = {
  man : M.t;
  v1 : Fdd.block;
  v2 : Fdd.block;
  h1 : Fdd.block;
  h2 : Fdd.block;
  fd : Fdd.block;
  (* relations, manually tracked: *)
  mutable pt : M.node;  (* <V1, H1> *)
  mutable fieldpt : M.node;  (* <H2, F, H1> *)
  mutable alloc : M.node;  (* <V1, H1> *)
  mutable assign : M.node;  (* src:V1, dst:V2 *)
  mutable load : M.node;  (* base:V1, F, dst:V2 *)
  mutable store : M.node;  (* src:V1, base:V2, F *)
  v1_to_v2 : Rep.perm;
  v2_to_v1 : Rep.perm;
  h1_to_h2 : Rep.perm;
  v1_cube : M.node;
  v2_cube : M.node;
  h2f_cube : M.node;
}

let bits_for n =
  let rec go k acc = if k >= n then acc else go (k * 2) (acc + 1) in
  max 1 (go 1 0)

let create (p : P.t) : t =
  let man = M.create ~node_capacity:(1 lsl 16) () in
  let vb = bits_for (max 2 p.P.n_vars) in
  let hb = bits_for (max 2 p.P.n_heap) in
  let fb = bits_for (max 2 p.P.n_fields) in
  (* Allocate the variable blocks in the same relative order the Jedd
     runtime uses for its physical domains, so Table 2 compares the
     translation overhead and not two different variable orderings (the
     ordering itself is studied separately in [ablation-order]). *)
  let v1 = Fdd.extdomain_bits man vb in
  let v2 = Fdd.extdomain_bits man vb in
  let h1 = Fdd.extdomain_bits man hb in
  let h2 = Fdd.extdomain_bits man hb in
  let fd = Fdd.extdomain_bits man fb in
  let tuple2 b1 x b2 y = Ops.band man (Fdd.ithvar man b1 x) (Fdd.ithvar man b2 y) in
  let tuple3 b1 x b2 y b3 z = Ops.band man (tuple2 b1 x b2 y) (Fdd.ithvar man b3 z) in
  let union_of mk xs =
    List.fold_left (fun acc x -> Ops.bor man acc (mk x)) M.zero xs
  in
  let alloc = M.addref man (union_of (fun (v, h) -> tuple2 v1 v h1 h) p.P.allocs) in
  let assign =
    M.addref man (union_of (fun (s, d) -> tuple2 v1 s v2 d) p.P.assigns)
  in
  let load =
    M.addref man
      (union_of (fun (b, f, d) -> tuple3 v1 b fd f v2 d) p.P.loads)
  in
  let store =
    M.addref man
      (union_of (fun (s, b, f) -> tuple3 v1 s v2 b fd f) p.P.stores)
  in
  {
    man;
    v1;
    v2;
    h1;
    h2;
    fd;
    pt = M.addref man M.zero;
    fieldpt = M.addref man M.zero;
    alloc;
    assign;
    load;
    store;
    v1_to_v2 = Rep.make_perm man (Fdd.perm_pairs v1 v2);
    v2_to_v1 = Rep.make_perm man (Fdd.perm_pairs v2 v1);
    h1_to_h2 = Rep.make_perm man (Fdd.perm_pairs h1 h2);
    v1_cube = M.addref man (Fdd.domain_cube man v1);
    v2_cube = M.addref man (Fdd.domain_cube man v2);
    h2f_cube =
      M.addref man
        (Ops.band man (Fdd.domain_cube man h2) (Fdd.domain_cube man fd));
  }

(* manually-managed update: new value referenced, old dereferenced *)
let set_pt t n =
  ignore (M.addref t.man n);
  M.delref t.man t.pt;
  t.pt <- n

let set_fieldpt t n =
  ignore (M.addref t.man n);
  M.delref t.man t.fieldpt;
  t.fieldpt <- n

(* [use_relprod:false] replaces every relational product with an
   explicit conjunction followed by quantification — the join-then-
   project strategy §2.2.3 says composition improves on.  Used by the
   [ablation-compose] benchmark. *)
let solve ?(use_relprod = true) (t : t) =
  let m = t.man in
  let relprod a b cube =
    if use_relprod then Quant.relprod m a b cube
    else Quant.exist m (Ops.band m a b) cube
  in
  set_pt t t.alloc;
  let continue_loop = ref true in
  while !continue_loop do
    M.checkpoint m;
    let old_pt = t.pt and old_fieldpt = t.fieldpt in
    (* copy rule: pt(dst, h) from assign(src:V1, dst:V2), pt(var:V1, h):
       relprod over V1, result in V2, replace back to V1 *)
    let moved = relprod t.assign t.pt t.v1_cube in
    let copy_new = Rep.replace m moved t.v2_to_v1 in
    set_pt t (Ops.bor m t.pt copy_new);
    (* store rule: store(src:V1, base:V2, f) x pt(src->h1) -> (base:V2, f, h1);
       then x ptB(base:V2 -> baseheap:H2) -> fieldpt(H2, f, H1) *)
    let st1 = relprod t.store t.pt t.v1_cube in
    let ptb =
      (* pt with var moved to V2 and heap to H2 *)
      Rep.replace m (Rep.replace m t.pt t.v1_to_v2) t.h1_to_h2
    in
    let st2 = relprod st1 ptb t.v2_cube in
    set_fieldpt t (Ops.bor m t.fieldpt st2);
    (* load rule: load(base:V1, f, dst:V2) x pt(base->baseheap H2 via ptb')
       -> (f, dst:V2, H2); x fieldpt(H2, f, H1) -> (dst:V2, H1) -> V1 *)
    let ptb' = Rep.replace m t.pt t.h1_to_h2 in
    (* ptb' is <V1, H2>; compose with load over V1 *)
    let ld1 = relprod t.load ptb' t.v1_cube in
    let ld2 = relprod ld1 t.fieldpt t.h2f_cube in
    let load_new = Rep.replace m ld2 t.v2_to_v1 in
    set_pt t (Ops.bor m t.pt load_new);
    continue_loop := not (t.pt = old_pt && t.fieldpt = old_fieldpt)
  done

let pt_tuples (t : t) =
  let acc = ref [] in
  Fdd.iter_values t.man [| t.v1; t.h1 |] t.pt (fun vh ->
      acc := Array.to_list vh :: !acc);
  List.sort compare !acc

let pt_node_count t = Count.nodecount t.man t.pt

(* accessors used by the benchmark harness's ablations *)
let manager t = t.man
let pt_rel t = t.pt
let assign_rel t = t.assign
let v1_cube_of t = t.v1_cube

let destroy (t : t) =
  List.iter (M.delref t.man)
    [ t.pt; t.fieldpt; t.alloc; t.assign; t.load; t.store; t.v1_cube;
      t.v2_cube; t.h2f_cube ]
