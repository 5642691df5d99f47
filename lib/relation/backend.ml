module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Rep = Jedd_bdd.Replace
module Count = Jedd_bdd.Count
module Enum = Jedd_bdd.Enum
module Fdd = Jedd_bdd.Fdd
module Lv = Jedd_bdd.Levelized
module Store = Jedd_extmem.Store
module E = Jedd_extmem.Ebdd
module Mtb = Jedd_mtbdd.Mtbdd

type 'n ops = {
  zero : unit -> 'n;
  one : unit -> 'n;
  addref : 'n -> unit;
  delref : 'n -> unit;
  band : 'n -> 'n -> 'n;
  bor : 'n -> 'n -> 'n;
  bdiff : 'n -> 'n -> 'n;
  cube : (int * bool) list -> 'n;
  biimp_vars : int -> int -> 'n;
  ithval : Fdd.block -> int -> 'n;
  less_than : Fdd.block -> int -> 'n;
  restrict : 'n -> (int * bool) list -> 'n;
  exist : 'n -> int list -> 'n;
  replace : 'n -> (int * int) list -> 'n;
  relprod_replace : 'n -> 'n -> (int * int) list -> int list -> 'n;
  nodecount : 'n -> int;
  satcount : 'n -> over:int list -> int;
  shape : 'n -> int array;
  iter_assignments : 'n -> levels:int array -> (bool array -> unit) -> unit;
  equal : 'n -> 'n -> bool;
  is_zero : 'n -> bool;
  checkpoint : unit -> unit;
}

type 'n levelized = { export : 'n -> Lv.t; import : Lv.t -> 'n }

type 'n weights = {
  add : 'n -> 'n -> 'n;
  mul : 'n -> 'n -> 'n;
  scale : 'n -> int -> 'n;
  sum_exist : 'n -> int list -> 'n;
  threshold : 'n -> int -> 'n;
  iter_weighted :
    'n -> levels:int array -> (bool array -> int -> unit) -> unit;
}

type kind = [ `Incore | `Extmem | `Hybrid | `Mtbdd ]

type 'n engine = {
  kind : kind;
  id : 'n Type.Id.t;
  ops : 'n ops;
  levelized : 'n levelized option;
  weights : 'n weights option;
  store : Store.t option;
  mt_store : Mtb.t option;
}

type t = Engine : 'n engine -> t [@@unboxed]

(* The (level, polarity) literals of a block holding value [v], msb
   first. *)
let value_literals m block v =
  let levels = Fdd.levels m block in
  let w = Array.length levels in
  List.init w (fun i -> (levels.(i), (v lsr (w - 1 - i)) land 1 = 1))

(* -- in-core: the hash-consed node store of the manager itself ---------- *)

let incore m : M.node ops =
  {
    zero = (fun () -> M.zero);
    one = (fun () -> M.one);
    addref = (fun n -> ignore (M.addref m n));
    delref = (fun n -> M.delref m n);
    band = (fun a b -> Ops.band m a b);
    bor = (fun a b -> Ops.bor m a b);
    bdiff = (fun a b -> Ops.bdiff m a b);
    cube = (fun assignment -> Ops.cube m assignment);
    biimp_vars = (fun l1 l2 -> Ops.bbiimp m (M.var m l1) (M.var m l2));
    ithval = (fun block v -> Fdd.ithvar m block v);
    less_than = (fun block k -> Fdd.less_than_const m block k);
    restrict = (fun n assignment -> Ops.restrict m n assignment);
    exist =
      (fun n levels ->
        if levels = [] then n else Quant.exist m n (Quant.varset m levels));
    replace = (fun n pairs -> Rep.replace m n (Rep.make_perm m pairs));
    relprod_replace =
      (fun f g pairs qlevels ->
        let perm = Rep.make_perm m pairs in
        let cube = if qlevels = [] then M.one else Quant.varset m qlevels in
        Rep.relprod_replace m f g perm cube);
    nodecount = (fun n -> Count.nodecount m n);
    satcount = (fun n ~over -> Count.satcount m n ~over);
    shape = (fun n -> Count.shape m n);
    iter_assignments =
      (fun n ~levels k -> Enum.iter_assignments m n ~levels k);
    equal = Int.equal;
    is_zero = (fun n -> n = M.zero);
    checkpoint = (fun () -> M.checkpoint m);
  }

let incore_levelized m = { export = Lv.of_manager m; import = Lv.to_manager m }

(* -- extmem: levelized node files swept through bounded memory ---------- *)

let extmem m st : E.t ops =
  {
    zero = (fun () -> E.tfalse);
    one = (fun () -> E.ttrue);
    (* external nodes are ordinary GC'd values; files are reclaimed by
       finalisers *)
    addref = ignore;
    delref = ignore;
    band = (fun a b -> E.band st a b);
    bor = (fun a b -> E.bor st a b);
    bdiff = (fun a b -> E.bdiff st a b);
    cube = E.cube;
    biimp_vars = E.biimp_levels;
    ithval = (fun block v -> E.cube (value_literals m block v));
    less_than =
      (fun block k -> E.less_than_const (Array.to_list (Fdd.levels m block)) k);
    restrict = (fun n assignment -> E.restrict st assignment n);
    exist = (fun n levels -> E.exist st levels n);
    replace = (fun n pairs -> E.replace st pairs n);
    relprod_replace =
      (fun f g pairs qlevels -> E.relprod_replace st f g pairs qlevels);
    nodecount = E.nodecount;
    satcount = (fun n ~over -> E.satcount st ~over n);
    shape = (fun n -> E.shape ~num_vars:(M.num_vars m) n);
    iter_assignments = (fun n ~levels k -> E.iter_assignments st ~levels n k);
    equal = E.equal;
    is_zero = (fun n -> E.equal n E.tfalse);
    checkpoint = ignore;
  }

let extmem_levelized m st =
  {
    export =
      (fun n ->
        let blocks, root = E.export_blocks st n in
        { Lv.blocks = Array.of_list blocks; root });
    import =
      (fun d ->
        Lv.validate ~num_vars:(M.num_vars m) d;
        E.import_blocks (Array.to_list d.Lv.blocks) d.Lv.root);
  }

(* -- hybrid: per-operation choice between the two engines above ---------

   A hybrid root lives in either engine.  The costs are asymmetric: a
   wrong in-core attempt wastes at most one table fill before
   [Manager.Out_of_nodes] aborts it (the operation then re-runs on the
   external engine, so a hybrid universe never aborts where pure extmem
   would complete), while a wrong extmem dispatch pays the full
   file-backed sweep — typically 1-2 orders of magnitude slower.  And
   the [Predict] bounds are saturating worst cases (operand products,
   bit-width caps) that real apply results undercut by orders of
   magnitude.  So dispatch is optimistic first: attempt in-core whenever
   the guaranteed allocation — importing external operands — fits in
   half the remaining headroom.  Only after an attempt has actually
   exhausted the table does the prediction gate engage: for the next
   [backoff_len] operations only sure fits (prediction plus import
   within half the headroom) run in-core, everything else streams.  A
   success costs nothing; repeated failures degrade to the conservative
   prediction-gated regime instead of thrashing the table.

   Resuming after a failed attempt is sound only because the hybrid
   manager raises [Out_of_nodes] without collecting
   ([set_gc_on_exhaustion false] in [make]): the caller's unreferenced
   in-flight operands survive the failure intact, so the fallback
   exports live nodes. *)

type hybrid_node = In of M.node | Ex of E.t

let backoff_len = 16

let hybrid m st : hybrid_node ops =
  let i = incore m and x = extmem m st in
  (* operations left during which optimistic in-core attempts are
     suppressed after a node-table exhaustion *)
  let backoff = ref 0 in
  let headroom () =
    match M.node_limit m with
    | None -> max_int
    | Some limit -> max 0 (limit - M.live_nodes m)
  in
  (* keep half the headroom in reserve for the operation's
     intermediates *)
  let prefer_incore ~predicted ~import_nodes =
    let h = headroom () in
    h = max_int
    || Predict.add predicted import_nodes <= h / 2
    ||
    if !backoff > 0 then begin
      decr backoff;
      false
    end
    else import_nodes <= h / 2
  in
  (* move a root across engines; the in-core root returned by [to_in]
     carries one external reference the caller must drop after the op *)
  let to_ex = function
    | Ex n -> n
    | In n ->
      let d = Lv.of_manager m n in
      E.import_blocks (Array.to_list d.Lv.blocks) d.Lv.root
  in
  let to_in = function
    | In n ->
      ignore (M.addref m n);
      n
    | Ex n ->
      let blocks, root = E.export_blocks st n in
      Lv.to_manager m { Lv.blocks = Array.of_list blocks; root }
  in
  let import_cost = function In _ -> 0 | Ex n -> E.nodecount n in
  (* Run [fin] in-core over operands it imports through [load], falling
     back to [fex] on node-table exhaustion.  The temporary refs balance
     [to_in]'s addref/import after the op; the result itself is safe
     unreferenced — no safe point runs before the caller's addref. *)
  let run ~prefer_incore fin fex =
    if prefer_incore then begin
      let temps = ref [] in
      let load v =
        let n = to_in v in
        temps := n :: !temps;
        n
      in
      let attempt = try Some (fin load) with M.Out_of_nodes -> None in
      List.iter (M.delref m) !temps;
      match attempt with
      | Some r -> In r
      | None ->
        backoff := backoff_len;
        Ex (fex to_ex)
    end
    else Ex (fex to_ex)
  in
  let op2 ~predicted fin fex x y =
    let prefer_incore =
      prefer_incore ~predicted ~import_nodes:(import_cost x + import_cost y)
    in
    run ~prefer_incore
      (fun load ->
        let a = load x in
        fin a (load y))
      (fun ex ->
        let a = ex x in
        fex a (ex y))
  in
  (* constructors build tiny BDDs: prefer the in-core engine unless the
     table is nearly full, in which case the pure-data external form is
     free of allocation pressure *)
  let constructor fin fex =
    if headroom () > 1024 then
      try In (fin ()) with M.Out_of_nodes -> Ex (fex ())
    else Ex (fex ())
  in
  let nodecount = function In n -> i.nodecount n | Ex n -> x.nodecount n in
  let apply fin fex a b =
    op2
      ~predicted:(Predict.apply ~left:(nodecount a) ~right:(nodecount b))
      fin fex a b
  in
  (* restrict, exist and replace: results no larger than a replace *)
  let op1 fin fex a =
    let prefer_incore =
      prefer_incore
        ~predicted:(Predict.replace ~nodes:(nodecount a))
        ~import_nodes:(import_cost a)
    in
    run ~prefer_incore (fun load -> fin (load a)) (fun ex -> fex (ex a))
  in
  let zero_node = In M.zero and one_node = In M.one in
  {
    zero = (fun () -> zero_node);
    one = (fun () -> one_node);
    addref = (function In n -> i.addref n | Ex n -> x.addref n);
    delref = (function In n -> i.delref n | Ex n -> x.delref n);
    band = apply i.band x.band;
    bor = apply i.bor x.bor;
    bdiff = apply i.bdiff x.bdiff;
    cube = (fun a -> constructor (fun () -> i.cube a) (fun () -> x.cube a));
    biimp_vars =
      (fun l1 l2 ->
        constructor
          (fun () -> i.biimp_vars l1 l2)
          (fun () -> x.biimp_vars l1 l2));
    ithval =
      (fun block v ->
        constructor (fun () -> i.ithval block v) (fun () -> x.ithval block v));
    less_than =
      (fun block k ->
        constructor
          (fun () -> i.less_than block k)
          (fun () -> x.less_than block k));
    restrict =
      (fun n a -> op1 (fun r -> i.restrict r a) (fun r -> x.restrict r a) n);
    exist = (fun n ls -> op1 (fun r -> i.exist r ls) (fun r -> x.exist r ls) n);
    replace =
      (fun n ps -> op1 (fun r -> i.replace r ps) (fun r -> x.replace r ps) n);
    relprod_replace =
      (fun f g pairs qlevels ->
        op2
          ~predicted:
            (Predict.product ~left:(nodecount f) ~right:(nodecount g)
               ~result_bits:(M.num_vars m))
          (fun a b -> i.relprod_replace a b pairs qlevels)
          (fun a b -> x.relprod_replace a b pairs qlevels)
          f g);
    nodecount;
    satcount =
      (fun n ~over ->
        match n with
        | In n -> i.satcount n ~over
        | Ex n -> x.satcount n ~over);
    shape = (function In n -> i.shape n | Ex n -> x.shape n);
    iter_assignments =
      (fun n ~levels k ->
        match n with
        | In n -> i.iter_assignments n ~levels k
        | Ex n -> x.iter_assignments n ~levels k);
    (* mixed-engine comparison: export the in-core side (pure, no
       allocation) and compare levelized forms structurally *)
    equal =
      (fun a b ->
        match (a, b) with
        | In a, In b -> i.equal a b
        | _ -> E.equal (to_ex a) (to_ex b));
    is_zero = (function In n -> i.is_zero n | Ex n -> x.is_zero n);
    checkpoint = i.checkpoint;
  }

(* hybrid imports to the allocation-free external form; ops pull roots
   in-core later if the headroom allows *)
let hybrid_levelized m st =
  let il = incore_levelized m and xl = extmem_levelized m st in
  {
    export = (function In n -> il.export n | Ex n -> xl.export n);
    import = (fun d -> Ex (xl.import d));
  }

(* -- mtbdd: terminal-valued diagrams -------------------------------------

   Boolean relations in a terminal-valued store are the 0/1 embedding:
   conjunction is pointwise [Mul] (so intersecting with a 0/1 mask
   preserves weights instead of clamping them), disjunction is [Max],
   difference is [Diff], and quantification aggregates terminals with
   [Max].  Under that reading every operation below is bit-identical to
   the in-core engine on 0/1 diagrams — the cross-backend differential
   tests lean on exactly this. *)

let mtbdd m s : Mtb.node ops =
  let cube assignment =
    let sorted = List.sort (fun (a, _) (b, _) -> compare b a) assignment in
    List.fold_left
      (fun acc (lvl, sign) ->
        if sign then Mtb.mk s lvl (Mtb.zero s) acc
        else Mtb.mk s lvl acc (Mtb.zero s))
      (Mtb.one s) sorted
  in
  {
    zero = (fun () -> Mtb.zero s);
    one = (fun () -> Mtb.one s);
    addref = (fun n -> Mtb.addref s n);
    delref = (fun n -> Mtb.delref s n);
    band = (fun a b -> Mtb.apply s Mtb.Mul a b);
    bor = (fun a b -> Mtb.apply s Mtb.Max a b);
    bdiff = (fun a b -> Mtb.apply s Mtb.Diff a b);
    cube;
    biimp_vars =
      (fun l1 l2 ->
        let lo_l = Int.min l1 l2 and hi_l = Int.max l1 l2 in
        let eq_hi = Mtb.mk s hi_l (Mtb.zero s) (Mtb.one s) in
        let eq_lo = Mtb.mk s hi_l (Mtb.one s) (Mtb.zero s) in
        Mtb.mk s lo_l eq_lo eq_hi);
    ithval = (fun block v -> cube (value_literals m block v));
    less_than =
      (fun block k ->
        (* build on the shared boolean manager and lift the 0/1 diagram *)
        let bn = M.addref m (Fdd.less_than_const m block k) in
        let r = Mtb.of_bool s m bn in
        M.delref m bn;
        r);
    restrict = (fun n assignment -> Mtb.restrict s n assignment);
    exist = (fun n levels -> Mtb.exist s Mtb.Max_agg n levels);
    replace = (fun n pairs -> Mtb.replace s n pairs);
    relprod_replace =
      (fun f g pairs qlevels -> Mtb.relprod_replace s f g pairs qlevels);
    nodecount = (fun n -> Mtb.nodecount s n);
    satcount = (fun n ~over -> Mtb.satcount s n ~over);
    shape = (fun n -> Mtb.shape s n ~num_vars:(M.num_vars m));
    iter_assignments =
      (fun n ~levels k -> Mtb.iter_assignments s n ~levels k);
    equal = Int.equal;
    is_zero = (fun n -> n = Mtb.zero s);
    checkpoint =
      (fun () ->
        (* the boolean manager holds constructor scratch (less_than) *)
        Mtb.checkpoint s;
        M.checkpoint m);
  }

let mtbdd_weights s =
  {
    add = Mtb.apply s Mtb.Add;
    mul = Mtb.apply s Mtb.Mul;
    scale = (fun x k -> Mtb.apply s Mtb.Mul x (Mtb.terminal s k));
    (* the counting projection *)
    sum_exist = (fun x levels -> Mtb.exist s Mtb.Sum x levels);
    threshold = Mtb.threshold s;
    iter_weighted = (fun n ~levels k -> Mtb.iter_weighted s n ~levels k);
  }

(* -- construction --------------------------------------------------------- *)

let pack kind ops ?levelized ?weights ?store ?mt_store () =
  Engine
    { kind; id = Type.Id.make (); ops; levelized; weights; store; mt_store }

let make kind m =
  match kind with
  | `Incore -> pack kind (incore m) ~levelized:(incore_levelized m) ()
  | `Extmem ->
    let st = Store.create () in
    pack kind (extmem m st) ~levelized:(extmem_levelized m st) ~store:st ()
  | `Hybrid ->
    (* The fallback *resumes* the surrounding computation after catching
       [Out_of_nodes], so exhaustion must not collect: the caller's
       unreferenced intermediates (e.g. a fold accumulator in
       [Relation.of_tuples]) would be recycled under it and the resumed
       operation would export stale handles.  Garbage then waits for the
       next checkpoint, the designated safe point. *)
    M.set_gc_on_exhaustion m false;
    let st = Store.create () in
    pack kind (hybrid m st) ~levelized:(hybrid_levelized m st) ~store:st ()
  | `Mtbdd ->
    let s = Mtb.create () in
    pack kind (mtbdd m s) ~weights:(mtbdd_weights s) ~mt_store:s ()

let kind (Engine e) = e.kind
let store (Engine e) = e.store
let mt_store (Engine e) = e.mt_store
let cleanup (Engine e) = Option.iter Store.cleanup e.store

let levelizes = function `Incore | `Extmem | `Hybrid -> true | `Mtbdd -> false
let in_place = function `Incore -> true | `Extmem | `Hybrid | `Mtbdd -> false

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
