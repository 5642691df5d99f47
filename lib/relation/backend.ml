module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Rep = Jedd_bdd.Replace
module Count = Jedd_bdd.Count
module Enum = Jedd_bdd.Enum
module Fdd = Jedd_bdd.Fdd
module Store = Jedd_extmem.Store
module E = Jedd_extmem.Ebdd
module Mtb = Jedd_mtbdd.Mtbdd

module type BACKEND = sig
  type state
  type node

  val zero : state -> node
  val one : state -> node
  val addref : state -> node -> unit
  val delref : state -> node -> unit
  val band : state -> node -> node -> node
  val bor : state -> node -> node -> node
  val bdiff : state -> node -> node -> node
  val cube : state -> (int * bool) list -> node
  val biimp_vars : state -> int -> int -> node
  val ithval : state -> Fdd.block -> int -> node
  val less_than : state -> Fdd.block -> int -> node
  val restrict : state -> node -> (int * bool) list -> node
  val exist : state -> node -> int list -> node
  val replace : state -> node -> (int * int) list -> node

  val relprod_replace :
    state -> node -> node -> (int * int) list -> int list -> node

  val nodecount : state -> node -> int
  val satcount : state -> node -> over:int list -> int
  val shape : state -> node -> int array

  val iter_assignments :
    state -> node -> levels:int array -> (bool array -> unit) -> unit

  val equal : state -> node -> node -> bool
  val is_zero : state -> node -> bool
  val checkpoint : state -> unit
  val supports_reorder : bool
  val freeze : state -> unit
  val frozen : state -> bool
end

module Incore = struct
  type state = M.t
  type node = M.node

  let zero (_ : state) = M.zero
  let one (_ : state) = M.one
  let addref m n = ignore (M.addref m n)
  let delref m n = M.delref m n
  let band = Ops.band
  let bor = Ops.bor
  let bdiff = Ops.bdiff
  let cube = Ops.cube
  let biimp_vars m l1 l2 = Ops.bbiimp m (M.var m l1) (M.var m l2)
  let ithval = Fdd.ithvar
  let less_than = Fdd.less_than_const
  let restrict = Ops.restrict

  let exist m n levels =
    if levels = [] then n else Quant.exist m n (Quant.varset m levels)

  let replace m n pairs = Rep.replace m n (Rep.make_perm m pairs)

  let relprod_replace m f g pairs qlevels =
    let perm = Rep.make_perm m pairs in
    let cube = if qlevels = [] then M.one else Quant.varset m qlevels in
    Rep.relprod_replace m f g perm cube

  let nodecount = Count.nodecount
  let satcount = Count.satcount
  let shape = Count.shape
  let iter_assignments = Enum.iter_assignments
  let equal (_ : state) a b = a = b
  let is_zero (_ : state) n = n = M.zero
  let checkpoint = M.checkpoint
  let supports_reorder = true
  let freeze = M.freeze
  let frozen = M.frozen
end

type extmem_state = { xmgr : M.t; xstore : Store.t }

module Extmem = struct
  type state = extmem_state
  type node = E.t

  let zero (_ : state) = E.tfalse
  let one (_ : state) = E.ttrue

  (* external nodes are ordinary GC'd values; files are reclaimed by
     finalisers *)
  let addref (_ : state) (_ : node) = ()
  let delref (_ : state) (_ : node) = ()
  let band s = E.band s.xstore
  let bor s = E.bor s.xstore
  let bdiff s = E.bdiff s.xstore
  let cube (_ : state) assignment = E.cube assignment
  let biimp_vars (_ : state) l1 l2 = E.biimp_levels l1 l2

  let block_levels s block = Fdd.levels s.xmgr block (* msb first *)

  let ithval s block v =
    let levels = block_levels s block in
    let w = Array.length levels in
    E.cube
      (List.init w (fun i -> (levels.(i), (v lsr (w - 1 - i)) land 1 = 1)))

  let less_than s block k =
    E.less_than_const (Array.to_list (block_levels s block)) k

  let restrict s n assignment = E.restrict s.xstore assignment n
  let exist s n levels = E.exist s.xstore levels n
  let replace s n pairs = E.replace s.xstore pairs n

  let relprod_replace s f g pairs qlevels =
    E.relprod_replace s.xstore f g pairs qlevels

  let nodecount (_ : state) n = E.nodecount n
  let satcount s n ~over = E.satcount s.xstore ~over n
  let shape s n = E.shape ~num_vars:(M.num_vars s.xmgr) n
  let iter_assignments s n ~levels k = E.iter_assignments s.xstore ~levels n k
  let equal (_ : state) a b = E.equal a b
  let is_zero (_ : state) n = E.equal n E.tfalse
  let checkpoint (_ : state) = ()
  let supports_reorder = false

  (* The spill store appends node files per operation; there is no
     read-only arena to pin, so serving must stay on the in-core
     backend. *)
  let freeze (_ : state) =
    invalid_arg "Backend.freeze: extmem backend cannot be frozen"

  let frozen (_ : state) = false
end

type mtbdd_state = { mmgr : M.t; mstore : Mtb.t }

(* Boolean relations in a terminal-valued store are the 0/1 embedding:
   conjunction is pointwise [Mul] (so intersecting with a 0/1 mask
   preserves weights instead of clamping them), disjunction is [Max],
   difference is [Diff], and quantification aggregates terminals with
   [Max].  Under that reading every BACKEND operation below is
   bit-identical to the in-core engine on 0/1 diagrams — the
   cross-backend differential tests lean on exactly this. *)
module Mtbdd_b = struct
  type state = mtbdd_state
  type node = Mtb.node

  let zero s = Mtb.zero s.mstore
  let one s = Mtb.one s.mstore
  let addref s n = Mtb.addref s.mstore n
  let delref s n = Mtb.delref s.mstore n
  let band s = Mtb.apply s.mstore Mtb.Mul
  let bor s = Mtb.apply s.mstore Mtb.Max
  let bdiff s = Mtb.apply s.mstore Mtb.Diff

  let cube s assignment =
    let sorted =
      List.sort (fun (a, _) (b, _) -> compare b a) assignment
    in
    List.fold_left
      (fun acc (lvl, sign) ->
        if sign then Mtb.mk s.mstore lvl (Mtb.zero s.mstore) acc
        else Mtb.mk s.mstore lvl acc (Mtb.zero s.mstore))
      (Mtb.one s.mstore) sorted

  let biimp_vars s l1 l2 =
    let st = s.mstore in
    let lo_l = Int.min l1 l2 and hi_l = Int.max l1 l2 in
    let eq_hi = Mtb.mk st hi_l (Mtb.zero st) (Mtb.one st) in
    let eq_lo = Mtb.mk st hi_l (Mtb.one st) (Mtb.zero st) in
    Mtb.mk st lo_l eq_lo eq_hi

  let block_levels s block = Fdd.levels s.mmgr block (* msb first *)

  let ithval s block v =
    let levels = block_levels s block in
    let w = Array.length levels in
    cube s
      (List.init w (fun i -> (levels.(i), (v lsr (w - 1 - i)) land 1 = 1)))

  let less_than s block k =
    (* build on the shared boolean manager and lift the 0/1 diagram *)
    let bn = M.addref s.mmgr (Fdd.less_than_const s.mmgr block k) in
    let r = Mtb.of_bool s.mstore s.mmgr bn in
    M.delref s.mmgr bn;
    r

  let restrict s n assignment = Mtb.restrict s.mstore n assignment
  let exist s n levels = Mtb.exist s.mstore Mtb.Max_agg n levels
  let replace s n pairs = Mtb.replace s.mstore n pairs

  let relprod_replace s f g pairs qlevels =
    Mtb.relprod_replace s.mstore f g pairs qlevels

  let nodecount s n = Mtb.nodecount s.mstore n
  let satcount s n ~over = Mtb.satcount s.mstore n ~over
  let shape s n = Mtb.shape s.mstore n ~num_vars:(M.num_vars s.mmgr)

  let iter_assignments s n ~levels k =
    Mtb.iter_assignments s.mstore n ~levels k

  let equal (_ : state) a b = a = b
  let is_zero s n = n = Mtb.zero s.mstore

  let checkpoint s =
    (* the boolean manager holds constructor scratch (less_than) *)
    Mtb.checkpoint s.mstore;
    M.checkpoint s.mmgr

  let supports_reorder = false

  (* terminal-valued stores have no read-only arena form *)
  let freeze (_ : state) =
    invalid_arg "Backend.freeze: mtbdd backend cannot be frozen"

  let frozen (_ : state) = false
end

(* dispatch layer *)

module Lv = Jedd_bdd.Levelized

type kind = [ `Incore | `Extmem | `Hybrid | `Mtbdd ]

type t = {
  knd : kind;
  mgr : M.t;
  ext : extmem_state option;
  mt : mtbdd_state option;
  (* hybrid only: number of upcoming operations for which optimistic
     in-core attempts are suppressed after a node-table exhaustion; see
     [hyb_prefer_incore] *)
  mutable hyb_backoff : int;
}

type node = In of M.node | Ex of E.t | Mt of Mtb.node

let make knd mgr =
  match knd with
  | `Incore ->
    { knd; mgr; ext = None; mt = None; hyb_backoff = 0 }
  | `Mtbdd ->
    { knd; mgr; ext = None;
      mt = Some { mmgr = mgr; mstore = Mtb.create () };
      hyb_backoff = 0 }
  | `Extmem | `Hybrid ->
    (* The hybrid fallback *resumes* the surrounding computation after
       catching [Out_of_nodes], so exhaustion must not collect: the
       caller's unreferenced intermediates (e.g. a fold accumulator in
       [Relation.of_tuples]) would be recycled under it and the
       resumed operation would export stale handles.  Garbage then
       waits for the next checkpoint, the designated safe point. *)
    if knd = `Hybrid then M.set_gc_on_exhaustion mgr false;
    { knd; mgr;
      ext = Some { xmgr = mgr; xstore = Store.create () };
      mt = None; hyb_backoff = 0 }

let kind b = b.knd
let manager b = b.mgr
let store b = Option.map (fun s -> s.xstore) b.ext
let mt_store b = Option.map (fun s -> s.mstore) b.mt

let cleanup b =
  match b.ext with None -> () | Some s -> Store.cleanup s.xstore

let ext b =
  match b.ext with
  | Some s -> s
  | None -> invalid_arg "Backend: extmem state on an in-core backend"

let mts b =
  match b.mt with
  | Some s -> s
  | None -> invalid_arg "Backend: mtbdd state on a non-mtbdd backend"

let in_node = function
  | In n -> n
  | Ex _ | Mt _ -> invalid_arg "Backend: foreign node passed to in-core backend"

let ex_node = function
  | Ex n -> n
  | In _ | Mt _ -> invalid_arg "Backend: foreign node passed to extmem backend"

let mt_node = function
  | Mt n -> n
  | In _ | Ex _ -> invalid_arg "Backend: foreign node passed to mtbdd backend"

(* -- hybrid engine choice (ROADMAP item 3) ------------------------------

   A hybrid backend holds both engines and picks one per operation.  The
   costs are asymmetric: a wrong in-core attempt wastes at most one table
   fill before [Manager.Out_of_nodes] aborts it (the operation then
   re-runs on the external engine, so a hybrid universe never aborts
   where pure extmem would complete), while a wrong extmem dispatch pays
   the full file-backed sweep — typically 1-2 orders of magnitude
   slower.  And the [Predict] bounds are saturating worst cases (operand
   products, bit-width caps) that real apply results undercut by orders
   of magnitude.  So dispatch is optimistic first: attempt in-core
   whenever the guaranteed allocation — importing external operands —
   fits in half the remaining headroom.  Only after an attempt has
   actually exhausted the table does the prediction gate engage: for the
   next [hyb_backoff_len] operations only sure fits (prediction plus
   import within half the headroom) run in-core, everything else
   streams.  A success costs nothing; repeated failures degrade to the
   conservative prediction-gated regime instead of thrashing the
   table. *)

let hyb_nodecount b = function
  | In n -> Incore.nodecount b.mgr n
  | Ex n -> E.nodecount n
  | Mt _ -> invalid_arg "Backend: mtbdd node passed to hybrid backend"

let hyb_headroom b =
  match M.node_limit b.mgr with
  | None -> max_int
  | Some limit -> max 0 (limit - M.live_nodes b.mgr)

let hyb_backoff_len = 16

(* keep half the headroom in reserve for the operation's intermediates *)
let hyb_prefer_incore b ~predicted ~import_nodes =
  let h = hyb_headroom b in
  h = max_int
  || Predict.add predicted import_nodes <= h / 2
  ||
  if b.hyb_backoff > 0 then begin
    b.hyb_backoff <- b.hyb_backoff - 1;
    false
  end
  else import_nodes <= h / 2

(* move a root across engines; the in-core root returned by [to_in]
   carries one external reference the caller must drop after the op *)
let hyb_to_ex b = function
  | Ex n -> n
  | In n ->
    let d = Lv.of_manager b.mgr n in
    E.import_blocks (Array.to_list d.Lv.blocks) d.Lv.root
  | Mt _ -> invalid_arg "Backend: mtbdd node passed to hybrid backend"

let hyb_to_in b = function
  | In n ->
    ignore (M.addref b.mgr n);
    n
  | Ex n ->
    let blocks, root = E.export_blocks (ext b).xstore n in
    Lv.to_manager b.mgr { Lv.blocks = Array.of_list blocks; root }
  | Mt _ -> invalid_arg "Backend: mtbdd node passed to hybrid backend"

let hyb_import_cost = function
  | In _ -> 0
  | Ex n -> E.nodecount n
  | Mt _ -> invalid_arg "Backend: mtbdd node passed to hybrid backend"

(* Run [fin] in-core over imported operands, falling back to [fex] on
   node-table exhaustion.  The temporary refs balance [hyb_to_in]'s
   addref/import after the op; the result itself is safe unreferenced —
   no safe point runs before the caller's addref.  Resuming after a
   failed attempt is sound only because the hybrid manager raises
   [Out_of_nodes] without collecting ([set_gc_on_exhaustion false] in
   [make]): the caller's unreferenced in-flight operands survive the
   failure intact, so the fallback exports live nodes. *)
let hyb_run b ~prefer_incore fin fex operands =
  if prefer_incore then begin
    let temps = ref [] in
    let attempt =
      try
        let ins =
          List.map
            (fun v ->
              let n = hyb_to_in b v in
              temps := n :: !temps;
              n)
            operands
        in
        Some (fin ins)
      with M.Out_of_nodes -> None
    in
    List.iter (M.delref b.mgr) !temps;
    match attempt with
    | Some r -> In r
    | None ->
      b.hyb_backoff <- hyb_backoff_len;
      Ex (fex (List.map (hyb_to_ex b) operands))
  end
  else Ex (fex (List.map (hyb_to_ex b) operands))

let hyb2 b ~predicted fin fex x y =
  let prefer_incore =
    hyb_prefer_incore b ~predicted
      ~import_nodes:(hyb_import_cost x + hyb_import_cost y)
  in
  hyb_run b ~prefer_incore
    (function [ a; c ] -> fin b.mgr a c | _ -> assert false)
    (function [ a; c ] -> fex (ext b) a c | _ -> assert false)
    [ x; y ]

let hyb1 b ~predicted fin fex x =
  let prefer_incore =
    hyb_prefer_incore b ~predicted ~import_nodes:(hyb_import_cost x)
  in
  hyb_run b ~prefer_incore
    (function [ a ] -> fin b.mgr a | _ -> assert false)
    (function [ a ] -> fex (ext b) a | _ -> assert false)
    [ x ]

(* constructors build tiny BDDs: prefer the in-core engine unless the
   table is nearly full, in which case the pure-data external form is
   free of allocation pressure *)
let hyb_constructor b fin fex =
  if hyb_headroom b > 1024 then
    try In (fin b.mgr) with M.Out_of_nodes -> Ex (fex (ext b))
  else Ex (fex (ext b))

let zero b =
  match b.knd with
  | `Incore | `Hybrid -> In (Incore.zero b.mgr)
  | `Extmem -> Ex (Extmem.zero (ext b))
  | `Mtbdd -> Mt (Mtbdd_b.zero (mts b))

let one b =
  match b.knd with
  | `Incore | `Hybrid -> In (Incore.one b.mgr)
  | `Extmem -> Ex (Extmem.one (ext b))
  | `Mtbdd -> Mt (Mtbdd_b.one (mts b))

let addref b n =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Incore.addref b.mgr (in_node n)
  | `Extmem, _ | `Hybrid, _ -> Extmem.addref (ext b) (ex_node n)
  | `Mtbdd, _ -> Mtbdd_b.addref (mts b) (mt_node n)

let delref b n =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Incore.delref b.mgr (in_node n)
  | `Extmem, _ | `Hybrid, _ -> Extmem.delref (ext b) (ex_node n)
  | `Mtbdd, _ -> Mtbdd_b.delref (mts b) (mt_node n)

let lift2 b fin fex fmt x y =
  match b.knd with
  | `Incore -> In (fin b.mgr (in_node x) (in_node y))
  | `Extmem -> Ex (fex (ext b) (ex_node x) (ex_node y))
  | `Mtbdd -> Mt (fmt (mts b) (mt_node x) (mt_node y))
  | `Hybrid ->
    let predicted =
      Predict.apply ~left:(hyb_nodecount b x) ~right:(hyb_nodecount b y)
    in
    hyb2 b ~predicted fin fex x y

let band b = lift2 b Incore.band Extmem.band Mtbdd_b.band
let bor b = lift2 b Incore.bor Extmem.bor Mtbdd_b.bor
let bdiff b = lift2 b Incore.bdiff Extmem.bdiff Mtbdd_b.bdiff

let cube b assignment =
  match b.knd with
  | `Incore -> In (Incore.cube b.mgr assignment)
  | `Extmem -> Ex (Extmem.cube (ext b) assignment)
  | `Mtbdd -> Mt (Mtbdd_b.cube (mts b) assignment)
  | `Hybrid ->
    hyb_constructor b
      (fun m -> Incore.cube m assignment)
      (fun s -> Extmem.cube s assignment)

let biimp_vars b l1 l2 =
  match b.knd with
  | `Incore -> In (Incore.biimp_vars b.mgr l1 l2)
  | `Extmem -> Ex (Extmem.biimp_vars (ext b) l1 l2)
  | `Mtbdd -> Mt (Mtbdd_b.biimp_vars (mts b) l1 l2)
  | `Hybrid ->
    hyb_constructor b
      (fun m -> Incore.biimp_vars m l1 l2)
      (fun s -> Extmem.biimp_vars s l1 l2)

let ithval b block v =
  match b.knd with
  | `Incore -> In (Incore.ithval b.mgr block v)
  | `Extmem -> Ex (Extmem.ithval (ext b) block v)
  | `Mtbdd -> Mt (Mtbdd_b.ithval (mts b) block v)
  | `Hybrid ->
    hyb_constructor b
      (fun m -> Incore.ithval m block v)
      (fun s -> Extmem.ithval s block v)

let less_than b block k =
  match b.knd with
  | `Incore -> In (Incore.less_than b.mgr block k)
  | `Extmem -> Ex (Extmem.less_than (ext b) block k)
  | `Mtbdd -> Mt (Mtbdd_b.less_than (mts b) block k)
  | `Hybrid ->
    hyb_constructor b
      (fun m -> Incore.less_than m block k)
      (fun s -> Extmem.less_than s block k)

let restrict b n assignment =
  match b.knd with
  | `Incore -> In (Incore.restrict b.mgr (in_node n) assignment)
  | `Extmem -> Ex (Extmem.restrict (ext b) (ex_node n) assignment)
  | `Mtbdd -> Mt (Mtbdd_b.restrict (mts b) (mt_node n) assignment)
  | `Hybrid ->
    hyb1 b
      ~predicted:(Predict.replace ~nodes:(hyb_nodecount b n))
      (fun m x -> Incore.restrict m x assignment)
      (fun s x -> Extmem.restrict s x assignment)
      n

let exist b n levels =
  match b.knd with
  | `Incore -> In (Incore.exist b.mgr (in_node n) levels)
  | `Extmem -> Ex (Extmem.exist (ext b) (ex_node n) levels)
  | `Mtbdd -> Mt (Mtbdd_b.exist (mts b) (mt_node n) levels)
  | `Hybrid ->
    hyb1 b
      ~predicted:(Predict.replace ~nodes:(hyb_nodecount b n))
      (fun m x -> Incore.exist m x levels)
      (fun s x -> Extmem.exist s x levels)
      n

let replace b n pairs =
  match b.knd with
  | `Incore -> In (Incore.replace b.mgr (in_node n) pairs)
  | `Extmem -> Ex (Extmem.replace (ext b) (ex_node n) pairs)
  | `Mtbdd -> Mt (Mtbdd_b.replace (mts b) (mt_node n) pairs)
  | `Hybrid ->
    hyb1 b
      ~predicted:(Predict.replace ~nodes:(hyb_nodecount b n))
      (fun m x -> Incore.replace m x pairs)
      (fun s x -> Extmem.replace s x pairs)
      n

let relprod_replace b f g pairs qlevels =
  match b.knd with
  | `Incore ->
    In (Incore.relprod_replace b.mgr (in_node f) (in_node g) pairs qlevels)
  | `Extmem ->
    Ex (Extmem.relprod_replace (ext b) (ex_node f) (ex_node g) pairs qlevels)
  | `Mtbdd ->
    Mt (Mtbdd_b.relprod_replace (mts b) (mt_node f) (mt_node g) pairs qlevels)
  | `Hybrid ->
    let predicted =
      Predict.product
        ~left:(hyb_nodecount b f)
        ~right:(hyb_nodecount b g)
        ~result_bits:(M.num_vars b.mgr)
    in
    hyb2 b ~predicted
      (fun m x y -> Incore.relprod_replace m x y pairs qlevels)
      (fun s x y -> Extmem.relprod_replace s x y pairs qlevels)
      f g

let nodecount b n =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Incore.nodecount b.mgr (in_node n)
  | `Extmem, _ | `Hybrid, _ -> Extmem.nodecount (ext b) (ex_node n)
  | `Mtbdd, _ -> Mtbdd_b.nodecount (mts b) (mt_node n)

let satcount b n ~over =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Incore.satcount b.mgr (in_node n) ~over
  | `Extmem, _ | `Hybrid, _ -> Extmem.satcount (ext b) (ex_node n) ~over
  | `Mtbdd, _ -> Mtbdd_b.satcount (mts b) (mt_node n) ~over

let shape b n =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Incore.shape b.mgr (in_node n)
  | `Extmem, _ | `Hybrid, _ -> Extmem.shape (ext b) (ex_node n)
  | `Mtbdd, _ -> Mtbdd_b.shape (mts b) (mt_node n)

let iter_assignments b n ~levels k =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ ->
    Incore.iter_assignments b.mgr (in_node n) ~levels k
  | `Extmem, _ | `Hybrid, _ ->
    Extmem.iter_assignments (ext b) (ex_node n) ~levels k
  | `Mtbdd, _ -> Mtbdd_b.iter_assignments (mts b) (mt_node n) ~levels k

let equal b x y =
  match (b.knd, x, y) with
  | `Incore, _, _ | `Hybrid, In _, In _ ->
    Incore.equal b.mgr (in_node x) (in_node y)
  | `Extmem, _, _ -> Extmem.equal (ext b) (ex_node x) (ex_node y)
  | `Mtbdd, _, _ -> Mtbdd_b.equal (mts b) (mt_node x) (mt_node y)
  | `Hybrid, _, _ ->
    (* mixed-engine comparison: export the in-core side (pure, no
       allocation) and compare levelized forms structurally *)
    E.equal (hyb_to_ex b x) (hyb_to_ex b y)

let is_zero b n =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Incore.is_zero b.mgr (in_node n)
  | `Extmem, _ | `Hybrid, _ -> Extmem.is_zero (ext b) (ex_node n)
  | `Mtbdd, _ -> Mtbdd_b.is_zero (mts b) (mt_node n)

let checkpoint b =
  match b.knd with
  | `Incore | `Hybrid -> Incore.checkpoint b.mgr
  | `Extmem -> Extmem.checkpoint (ext b)
  | `Mtbdd -> Mtbdd_b.checkpoint (mts b)

let supports_reorder b =
  match b.knd with
  | `Incore -> Incore.supports_reorder
  (* hybrid roots may live as levelized node files, and mtbdd stores
     bake manager levels into their own node table: levels are fixed *)
  | `Extmem | `Hybrid -> Extmem.supports_reorder
  | `Mtbdd -> Mtbdd_b.supports_reorder

let freeze b =
  match b.knd with
  | `Incore -> Incore.freeze b.mgr
  | `Extmem -> Extmem.freeze (ext b)
  | `Mtbdd -> Mtbdd_b.freeze (mts b)
  | `Hybrid ->
    invalid_arg "Backend.freeze: hybrid backend cannot be frozen"

let frozen b =
  match b.knd with
  | `Incore | `Hybrid -> Incore.frozen b.mgr
  | `Extmem -> Extmem.frozen (ext b)
  | `Mtbdd -> Mtbdd_b.frozen (mts b)

(* -- backend names ------------------------------------------------------ *)

let known_backends = [ "incore"; "extmem"; "hybrid"; "mtbdd" ]

let kind_name = function
  | `Incore -> "incore"
  | `Extmem -> "extmem"
  | `Hybrid -> "hybrid"
  | `Mtbdd -> "mtbdd"

let kind_of_string s =
  match s with
  | "incore" -> `Incore
  | "extmem" -> `Extmem
  | "hybrid" -> `Hybrid
  | "mtbdd" -> `Mtbdd
  | _ ->
    invalid_arg
      (Printf.sprintf "unknown backend %S (known backends: %s)" s
         (String.concat ", " known_backends))

(* -- levelized serialization ------------------------------------------- *)

let export_levelized b n =
  match (b.knd, n) with
  | `Incore, _ | `Hybrid, In _ -> Lv.of_manager b.mgr (in_node n)
  | `Mtbdd, _ ->
    invalid_arg
      "Backend.export_levelized: mtbdd relations carry terminal weights \
       not representable in the boolean node-file format"
  | (`Extmem | `Hybrid), _ ->
    let blocks, root = E.export_blocks (ext b).xstore (ex_node n) in
    { Lv.blocks = Array.of_list blocks; root }

let import_levelized b (d : Lv.t) =
  Lv.validate d;
  match b.knd with
  | `Incore -> In (Lv.to_manager b.mgr d)
  | `Mtbdd ->
    invalid_arg
      "Backend.import_levelized: mtbdd relations carry terminal weights \
       not representable in the boolean node-file format"
  | `Extmem | `Hybrid ->
    (* hybrid imports to the allocation-free external form; ops pull
       roots in-core later if the headroom allows *)
    Array.iter
      (fun (l, _, _) ->
        if l >= M.num_vars b.mgr then
          raise
            (Lv.Malformed
               (Printf.sprintf "dump level %d outside manager order (%d vars)"
                  l (M.num_vars b.mgr))))
      d.Lv.blocks;
    Ex (E.import_blocks (Array.to_list d.Lv.blocks) d.Lv.root)

(* -- weighted (terminal-valued) entry points ---------------------------- *)

(* All of these require an [`Mtbdd] backend ([Invalid_argument]
   otherwise): they are the only operations whose semantics cannot be
   expressed through the boolean BACKEND signature. *)

let wmt b = (mts b).mstore
let wterminal b v = Mt (Mtb.terminal (wmt b) v)
let wvalue_cap = Mtb.value_cap

let wapply b op x y = Mt (Mtb.apply (wmt b) op (mt_node x) (mt_node y))
let wadd b = wapply b Mtb.Add
let wmin b = wapply b Mtb.Min
let wmax b = wapply b Mtb.Max
let wmul b = wapply b Mtb.Mul

let wscale b x k =
  Mt (Mtb.apply (wmt b) Mtb.Mul (mt_node x) (Mtb.terminal (wmt b) k))

(* Sum-aggregated quantification: project levels away adding up the
   per-assignment weights — the counting projection. *)
let wsum_exist b x levels = Mt (Mtb.exist (wmt b) Mtb.Sum (mt_node x) levels)
let wthreshold b x k = Mt (Mtb.threshold (wmt b) (mt_node x) k)

let iter_weighted b n ~levels k =
  Mtb.iter_weighted (wmt b) (mt_node n) ~levels k
