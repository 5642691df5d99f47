module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Rep = Jedd_bdd.Replace
module Count = Jedd_bdd.Count
module Enum = Jedd_bdd.Enum
module Fdd = Jedd_bdd.Fdd
module Lv = Jedd_bdd.Levelized
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

type kind = [ `Incore | `Mtbdd ]

type 'n engine = {
  kind : kind;
  id : 'n Type.Id.t;
  ops : 'n ops;
  levelized : 'n levelized option;
  weights : 'n weights option;
  mt_store : Mtb.t option;
}

type t = Engine : 'n engine -> t [@@unboxed]

(* The (level, polarity) literals of a block holding value [v], msb
   first. *)
let value_literals block v =
  let levels = Fdd.levels block in
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
    ithval = (fun block v -> cube (value_literals block v));
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

let pack kind ops ?levelized ?weights ?mt_store () =
  Engine { kind; id = Type.Id.make (); ops; levelized; weights; mt_store }

let make kind m =
  match kind with
  | `Incore -> pack kind (incore m) ~levelized:(incore_levelized m) ()
  | `Mtbdd ->
    let s = Mtb.create () in
    pack kind (mtbdd m s) ~weights:(mtbdd_weights s) ~mt_store:s ()

let kind (Engine e) = e.kind
let mt_store (Engine e) = e.mt_store
let in_place = function `Incore -> true | `Mtbdd -> false
let kind_name = function `Incore -> "incore" | `Mtbdd -> "mtbdd"
let known_backends = List.map kind_name [ `Incore; `Mtbdd ]
