module Fdd = Jedd_bdd.Fdd
module B = Backend

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

type t = {
  u : Universe.t;
  sch : Schema.t;
  rt : B.node;
  lc : int Atomic.t;  (** the universe's live-root counter, captured so
                          [release] (a finaliser) never takes a lock *)
  mutable released : bool;
}

let backend r = Universe.backend r.u

(* -- live-root accounting (per universe) --------------------------------

   The table lookup is mutex-protected (query workers sharing a frozen
   universe create relations from several domains), but the counter
   itself is atomic and captured in the relation: [release] runs from GC
   finalisers, which may fire while this very lock is held, so its path
   must be lock-free. *)

let live_lock = Mutex.create ()
let live_counts : (int, int Atomic.t) Hashtbl.t = Hashtbl.create 8

let live_counter u =
  Mutex.lock live_lock;
  let r =
    match Hashtbl.find_opt live_counts (Universe.uid u) with
    | Some r -> r
    | None ->
      let r = Atomic.make 0 in
      Hashtbl.add live_counts (Universe.uid u) r;
      r
  in
  Mutex.unlock live_lock;
  r

let live_root_count u = Atomic.get (live_counter u)

let release r =
  if not r.released then begin
    r.released <- true;
    Atomic.decr r.lc;
    B.delref (backend r) r.rt
  end

let make u sch rt =
  B.addref (Universe.backend u) rt;
  let lc = live_counter u in
  let r = { u; sch; rt; lc; released = false } in
  Atomic.incr lc;
  (* The finaliser is the safety net of §4.2: eager releases come from
     [release], called by the interpreter's liveness analysis. *)
  Gc.finalise release r;
  r

let of_root u sch rt = make u sch rt

let universe r = r.u
let schema r = r.sch

let root r =
  if r.released then invalid_arg "Relation: use after release";
  r.rt

(* -- profiling ----------------------------------------------------------- *)

let now_ms () = Sys.time () *. 1000.0

let profiled u ~op ~label ~operands f =
  match Universe.profile_level u with
  | Universe.Off -> f ()
  | lvl ->
    let b = Universe.backend u in
    let snap = Universe.bdd_snapshot u in
    let t0 = now_ms () in
    let result = f () in
    let millis = now_ms () -. t0 in
    let bdd = Some (Universe.bdd_delta_since u snap) in
    let operand_nodes = List.map (fun (r : t) -> B.nodecount b r.rt) operands in
    let result_nodes = B.nodecount b result.rt in
    let result_tuples =
      B.satcount b result.rt ~over:(Array.to_list (Schema.levels result.sch))
    in
    let shapes =
      match lvl with
      | Universe.Shapes ->
        Some
          ( B.shape b result.rt,
            List.map (fun (r : t) -> B.shape b r.rt) operands )
      | _ -> None
    in
    Universe.emit_op u
      {
        op;
        label;
        millis;
        operand_nodes;
        result_nodes;
        result_tuples;
        shapes;
        bdd;
      };
    result

(* -- scratch physical domains ------------------------------------------- *)

let scratch_lock = Mutex.create ()
let scratch_pools : (int, Physdom.t list ref) Hashtbl.t = Hashtbl.create 8

(* The whole allocate-or-reuse step is one critical section so two
   domains cannot both miss and declare duplicate scratch physdoms. *)
let scratch u ~bits ~avoid =
  Mutex.lock scratch_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock scratch_lock)
    (fun () ->
      let pool =
        match Hashtbl.find_opt scratch_pools (Universe.uid u) with
        | Some p -> p
        | None ->
          let p = ref [] in
          Hashtbl.add scratch_pools (Universe.uid u) p;
          p
      in
      let usable p =
        Physdom.width p >= bits && not (List.exists (Physdom.equal p) avoid)
      in
      match List.find_opt usable !pool with
      | Some p -> p
      | None ->
        let p =
          Physdom.declare u ~name:(Universe.next_scratch_name u) ~bits
        in
        pool := p :: !pool;
        p)

(* -- layout changes (replace at the BDD level, §3.2.2) ------------------- *)

(* Move attributes between physical domains of possibly different widths.
   [moves] is a list of (source physdom, target physdom).  Relies on the
   runtime invariant that bits above an attribute's domain width are
   constrained to zero.

   [layout_parts] splits the change into the three pieces the backends
   consume separately: the source-side restriction (applied eagerly — it
   only shrinks the operand, and only when a move narrows), the raw
   level-permutation pairs, and the levels of new high bits of wider
   targets that must be constrained to zero after the move. *)
let layout_parts u rt moves =
  let b = Universe.backend u in
  let moves = List.filter (fun (s, d) -> not (Physdom.equal s d)) moves in
  if moves = [] then (rt, [], [])
  else begin
    (* 1. Drop dependence on over-wide source high bits (constant 0). *)
    let rt =
      List.fold_left
        (fun rt (src, dst) ->
          let ws = Physdom.width src and wd = Physdom.width dst in
          if ws > wd then begin
            let lv = Physdom.levels src in
            let highs = Array.to_list (Array.sub lv 0 (ws - wd)) in
            B.restrict b rt (List.map (fun l -> (l, false)) highs)
          end
          else rt)
        rt moves
    in
    (* 2. One bit permutation for all moves (low bits aligned). *)
    let pairs =
      List.concat_map
        (fun (src, dst) ->
          let ls = Physdom.levels src and ld = Physdom.levels dst in
          let ws = Array.length ls and wd = Array.length ld in
          let k = min ws wd in
          List.init k (fun i -> (ls.(ws - 1 - i), ld.(wd - 1 - i))))
        moves
    in
    (* 3. New high bits of wider targets, to be constrained to zero. *)
    let zero_levels =
      List.concat_map
        (fun (src, dst) ->
          let ws = Physdom.width src and wd = Physdom.width dst in
          if wd > ws then
            let lv = Physdom.levels dst in
            List.init (wd - ws) (fun i -> lv.(i))
          else [])
        moves
    in
    (rt, pairs, zero_levels)
  end

let zero_cube b levels = B.cube b (List.map (fun l -> (l, false)) levels)

let change_layout u rt moves =
  let b = Universe.backend u in
  let rt, pairs, zero_levels = layout_parts u rt moves in
  let rt = if pairs = [] then rt else B.replace b rt pairs in
  if zero_levels = [] then rt else B.band b rt (zero_cube b zero_levels)

(* Equality constraint between two physical domains holding the same
   domain's values (used by attribute copy). *)
let phys_equality u pa pb =
  let b = Universe.backend u in
  let la = Physdom.levels pa and lb = Physdom.levels pb in
  let wa = Array.length la and wb = Array.length lb in
  let k = min wa wb in
  let acc = ref (B.one b) in
  for i = 0 to k - 1 do
    let eq = B.biimp_vars b la.(wa - 1 - i) lb.(wb - 1 - i) in
    acc := B.band b !acc eq
  done;
  (* extra high bits of the wider side must be zero *)
  let force_zero levels extra =
    for i = 0 to extra - 1 do
      acc := B.band b !acc (B.cube b [ (levels.(i), false) ])
    done
  in
  if wa > wb then force_zero la (wa - wb);
  if wb > wa then force_zero lb (wb - wa);
  !acc

(* -- construction -------------------------------------------------------- *)

let empty u sch = make u sch (B.zero (Universe.backend u))

let full u sch =
  Universe.checkpoint u;
  let b = Universe.backend u in
  let rt =
    List.fold_left
      (fun acc (e : Schema.entry) ->
        B.band b acc
          (B.less_than b (Physdom.block e.phys)
             (Domain.size (Attribute.domain e.attr))))
      (B.one b) (Schema.entries sch)
  in
  make u sch rt

let tuple_root u sch objs =
  let b = Universe.backend u in
  let entries = Schema.entries sch in
  if List.length objs <> List.length entries then
    type_error "tuple arity %d does not match schema %s" (List.length objs)
      (Schema.to_string sch);
  List.fold_left2
    (fun acc (e : Schema.entry) v ->
      let d = Attribute.domain e.attr in
      if v < 0 || v >= Domain.size d then
        type_error "object %d out of range for domain %s" v (Domain.name d);
      B.band b acc (B.ithval b (Physdom.block e.phys) v))
    (B.one b) entries objs

let tuple u sch objs =
  Universe.checkpoint u;
  make u sch (tuple_root u sch objs)

let of_tuples u sch tuples =
  Universe.checkpoint u;
  let b = Universe.backend u in
  let rt =
    List.fold_left
      (fun acc objs -> B.bor b acc (tuple_root u sch objs))
      (B.zero b) tuples
  in
  make u sch rt

(* -- layout coercion ------------------------------------------------------ *)

let coerce ?(label = "") r target =
  if not (Schema.same_attrs r.sch target) then
    type_error "coerce: schemas %s and %s differ in attributes"
      (Schema.to_string r.sch) (Schema.to_string target);
  if Schema.same_layout r.sch target then begin
    (* No BDD work, but normalise the attribute order to the target's
       so extraction (iterators, printing) follows the declaration. *)
    let same_order =
      List.for_all2
        (fun (a : Schema.entry) (b : Schema.entry) ->
          Attribute.equal a.attr b.attr)
        (Schema.entries r.sch) (Schema.entries target)
    in
    if same_order then r else make r.u target (root r)
  end
  else begin
    Universe.checkpoint r.u;
    profiled r.u ~op:"replace" ~label ~operands:[ r ] (fun () ->
        let moves =
          List.filter_map
            (fun (e : Schema.entry) ->
              let e' = Schema.find target e.attr in
              if Physdom.equal e.phys e'.phys then None
              else Some (e.phys, e'.phys))
            (Schema.entries r.sch)
        in
        make r.u target (change_layout r.u (root r) moves))
  end

let replace ?(label = "") r assignment =
  let target =
    Schema.make
      (List.map
         (fun (e : Schema.entry) ->
           match
             List.find_opt (fun (a, _) -> Attribute.equal a e.attr) assignment
           with
           | Some (_, phys) -> { e with phys }
           | None -> e)
         (Schema.entries r.sch))
  in
  List.iter
    (fun (a, _) ->
      if not (Schema.mem r.sch a) then
        type_error "replace: attribute %s not in schema %s" (Attribute.name a)
          (Schema.to_string r.sch))
    assignment;
  coerce ~label r target

(* -- set operations -------------------------------------------------------- *)

let set_op name bdd_op ?(label = "") x y =
  if not (Schema.same_attrs x.sch y.sch) then
    type_error "%s: incompatible schemas %s and %s" name
      (Schema.to_string x.sch) (Schema.to_string y.sch);
  Universe.checkpoint x.u;
  let y = coerce ~label y x.sch in
  profiled x.u ~op:name ~label ~operands:[ x; y ] (fun () ->
      make x.u x.sch (bdd_op (Universe.backend x.u) (root x) (root y)))

let union ?label x y = set_op "union" B.bor ?label x y
let inter ?label x y = set_op "intersect" B.band ?label x y
let diff ?label x y = set_op "difference" B.bdiff ?label x y

let equal x y =
  if not (Schema.same_attrs x.sch y.sch) then
    type_error "equal: incompatible schemas %s and %s"
      (Schema.to_string x.sch) (Schema.to_string y.sch);
  let y = coerce y x.sch in
  B.equal (backend x) (root x) (root y)

let is_empty r = B.is_zero (backend r) (root r)

let size r =
  B.satcount (backend r) (root r) ~over:(Array.to_list (Schema.levels r.sch))

(* -- projection and attribute operations ----------------------------------- *)

let project_away ?(label = "") r attrs =
  List.iter
    (fun a ->
      if not (Schema.mem r.sch a) then
        type_error "project: attribute %s not in schema %s" (Attribute.name a)
          (Schema.to_string r.sch))
    attrs;
  Universe.checkpoint r.u;
  profiled r.u ~op:"project" ~label ~operands:[ r ] (fun () ->
      let b = backend r in
      let removed, kept =
        List.partition
          (fun (e : Schema.entry) ->
            List.exists (Attribute.equal e.attr) attrs)
          (Schema.entries r.sch)
      in
      let levels =
        List.concat_map
          (fun (e : Schema.entry) -> Array.to_list (Physdom.levels e.phys))
          removed
      in
      make r.u (Schema.make kept) (B.exist b (root r) levels))

let rename ?(label = "") r renames =
  ignore label;
  let entries =
    List.map
      (fun (e : Schema.entry) ->
        match
          List.find_opt (fun (a, _) -> Attribute.equal a e.attr) renames
        with
        | Some (_, b) ->
          if not (Domain.equal (Attribute.domain e.attr) (Attribute.domain b))
          then
            type_error "rename: %s and %s have different domains"
              (Attribute.name e.attr) (Attribute.name b);
          { e with attr = b }
        | None -> e)
      (Schema.entries r.sch)
  in
  List.iter
    (fun (a, _) ->
      if not (Schema.mem r.sch a) then
        type_error "rename: attribute %s not in schema %s" (Attribute.name a)
          (Schema.to_string r.sch))
    renames;
  (* No BDD work: only the attribute -> physical domain map changes. *)
  make r.u (Schema.make entries) (root r)

let copy ?(label = "") ?phys r a ~as_ =
  if not (Schema.mem r.sch a) then
    type_error "copy: attribute %s not in schema %s" (Attribute.name a)
      (Schema.to_string r.sch);
  if Schema.mem r.sch as_ then
    type_error "copy: attribute %s already in schema %s" (Attribute.name as_)
      (Schema.to_string r.sch);
  if not (Domain.equal (Attribute.domain a) (Attribute.domain as_)) then
    type_error "copy: %s and %s have different domains" (Attribute.name a)
      (Attribute.name as_);
  Universe.checkpoint r.u;
  profiled r.u ~op:"copy" ~label ~operands:[ r ] (fun () ->
      let src = Schema.phys_of r.sch a in
      let target =
        match phys with
        | Some p -> p
        | None ->
          scratch r.u
            ~bits:(Domain.bits (Attribute.domain a))
            ~avoid:(List.map (fun (e : Schema.entry) -> e.phys)
                      (Schema.entries r.sch))
      in
      let entries =
        Schema.entries r.sch @ [ { Schema.attr = as_; phys = target } ]
      in
      let rt = B.band (backend r) (root r) (phys_equality r.u src target) in
      make r.u (Schema.make entries) rt)

(* -- join and composition --------------------------------------------------- *)

(* Shared front half of join and compose: dynamic type checks, then
   relayout of the right operand so compared attributes share physical
   domains with the left and everything else is collision-free. *)
let align name x cmp_x y cmp_y =
  if List.length cmp_x <> List.length cmp_y then
    type_error "%s: attribute lists differ in length" name;
  let check_in sch a =
    if not (Schema.mem sch a) then
      type_error "%s: attribute %s not in schema %s" name (Attribute.name a)
        (Schema.to_string sch)
  in
  List.iter (check_in x.sch) cmp_x;
  List.iter (check_in y.sch) cmp_y;
  List.iter2
    (fun a b ->
      if not (Domain.equal (Attribute.domain a) (Attribute.domain b)) then
        type_error "%s: compared attributes %s and %s have different domains"
          name (Attribute.name a) (Attribute.name b))
    cmp_x cmp_y;
  let dup l =
    List.exists
      (fun a -> List.length (List.filter (Attribute.equal a) l) > 1)
      l
  in
  if dup cmp_x || dup cmp_y then
    type_error "%s: duplicate attribute in comparison list" name;
  (* Choose target physical domains for the right operand. *)
  let x_entries = Schema.entries x.sch in
  let y_entries = Schema.entries y.sch in
  let target_of_cmp b =
    let i =
      let rec idx n = function
        | [] -> assert false
        | a :: rest -> if Attribute.equal a b then n else idx (n + 1) rest
      in
      idx 0 cmp_y
    in
    Schema.phys_of x.sch (List.nth cmp_x i)
  in
  let reserved =
    List.map (fun (e : Schema.entry) -> e.phys) x_entries
  in
  (* pass 1: compared attributes and keepable others *)
  let chosen = ref [] in
  let choose (e : Schema.entry) =
    if List.exists (Attribute.equal e.attr) cmp_y then begin
      let t = target_of_cmp e.attr in
      chosen := (e.attr, t) :: !chosen;
      t
    end
    else if
      (not (List.exists (Physdom.equal e.phys) reserved))
      && not (List.exists (fun (_, p) -> Physdom.equal p e.phys) !chosen)
    then begin
      chosen := (e.attr, e.phys) :: !chosen;
      e.phys
    end
    else begin
      (* collision: move to a scratch domain *)
      let avoid =
        reserved
        @ List.map snd !chosen
        @ List.map (fun (e : Schema.entry) -> e.phys) y_entries
      in
      let t =
        scratch x.u ~bits:(Domain.bits (Attribute.domain e.attr)) ~avoid
      in
      chosen := (e.attr, t) :: !chosen;
      t
    end
  in
  let y_targets =
    List.map (fun (e : Schema.entry) -> (e, choose e)) y_entries
  in
  let moves =
    List.filter_map
      (fun ((e : Schema.entry), t) ->
        if Physdom.equal e.phys t then None else Some (e.phys, t))
      y_targets
  in
  (* Hot path: the aligned right operand is NOT materialised here.  The
     caller feeds the pre-restricted root plus the permutation pairs to
     the backend's fused product (relprod_replace), which
     conjoins/quantifies against the permuted operand in one recursion
     (§2.2.3's one-pass argument, extended to the re-layout itself). *)
  let y_pre, pairs, zero_levels = layout_parts x.u (root y) moves in
  let y_entries' =
    List.map
      (fun ((e : Schema.entry), t) -> { e with Schema.phys = t })
      y_targets
  in
  (y_pre, pairs, zero_levels, y_entries')

let result_disjointness name left_entries right_entries =
  List.iter
    (fun (e : Schema.entry) ->
      if
        List.exists
          (fun (e2 : Schema.entry) -> Attribute.equal e.attr e2.attr)
          right_entries
      then
        type_error "%s: attribute %s appears on both sides" name
          (Attribute.name e.attr))
    left_entries

(* The left operand absorbs the zero-constraint on any new high bits of
   the (unmaterialised) aligned right operand:
   [f /\ (perm(g) /\ Z)] = [(f /\ Z) /\ perm(g)], and conjoining a small
   cube into [f] is linear in [f]. *)
let absorb_zero_levels b x_root zero_levels =
  if zero_levels = [] then x_root
  else B.band b x_root (zero_cube b zero_levels)

let join ?(label = "") x cmp_x y cmp_y =
  Universe.checkpoint x.u;
  profiled x.u ~op:"join" ~label ~operands:[ x; y ] (fun () ->
      let y_pre, pairs, zero_levels, y_entries' =
        align "join" x cmp_x y cmp_y
      in
      let kept_right =
        List.filter
          (fun (e : Schema.entry) ->
            not (List.exists (Attribute.equal e.attr) cmp_y))
          y_entries'
      in
      result_disjointness "join" (Schema.entries x.sch) kept_right;
      let b = Universe.backend x.u in
      let xr = absorb_zero_levels b (root x) zero_levels in
      (* Fused conjunction-with-permutation: no aligned intermediate. *)
      let rt = B.relprod_replace b xr y_pre pairs [] in
      make x.u (Schema.make (Schema.entries x.sch @ kept_right)) rt)

let compose ?(label = "") x cmp_x y cmp_y =
  Universe.checkpoint x.u;
  profiled x.u ~op:"compose" ~label ~operands:[ x; y ] (fun () ->
      let y_pre, pairs, zero_levels, y_entries' =
        align "compose" x cmp_x y cmp_y
      in
      let b = Universe.backend x.u in
      let kept_left =
        List.filter
          (fun (e : Schema.entry) ->
            not (List.exists (Attribute.equal e.attr) cmp_x))
          (Schema.entries x.sch)
      in
      let kept_right =
        List.filter
          (fun (e : Schema.entry) ->
            not (List.exists (Attribute.equal e.attr) cmp_y))
          y_entries'
      in
      result_disjointness "compose" kept_left kept_right;
      let qlevels =
        List.concat_map
          (fun a -> Array.to_list (Physdom.levels (Schema.phys_of x.sch a)))
          cmp_x
      in
      (* The one-pass relational product the paper says makes composition
         cheaper than join-then-project (§2.2.3), further fused with the
         right operand's re-layout so no aligned intermediate is built. *)
      let xr = absorb_zero_levels b (root x) zero_levels in
      let rt = B.relprod_replace b xr y_pre pairs qlevels in
      make x.u (Schema.make (kept_left @ kept_right)) rt)

let select ?(label = "") r bindings =
  List.iter
    (fun (a, _) ->
      if not (Schema.mem r.sch a) then
        type_error "select: attribute %s not in schema %s" (Attribute.name a)
          (Schema.to_string r.sch))
    bindings;
  Universe.checkpoint r.u;
  profiled r.u ~op:"select" ~label ~operands:[ r ] (fun () ->
      let b = backend r in
      let constraint_bdd =
        List.fold_left
          (fun acc (a, v) ->
            let e = Schema.find r.sch a in
            let d = Attribute.domain a in
            if v < 0 || v >= Domain.size d then
              type_error "select: object %d out of range for domain %s" v
                (Domain.name d);
            B.band b acc (B.ithval b (Physdom.block e.phys) v))
          (B.one b) bindings
      in
      make r.u r.sch (B.band b (root r) constraint_bdd))

(* -- extraction -------------------------------------------------------------- *)

let iter_tuples r k =
  let b = backend r in
  let m = Universe.manager r.u in
  let levels = Schema.levels r.sch in
  let entries = Array.of_list (Schema.entries r.sch) in
  let tuple = Array.make (Array.length entries) 0 in
  B.iter_assignments b (root r) ~levels (fun values ->
      Array.iteri
        (fun i (e : Schema.entry) ->
          tuple.(i) <- Fdd.decode m (Physdom.block e.phys) ~levels values)
        entries;
      k tuple)

let tuples r =
  let acc = ref [] in
  iter_tuples r (fun t -> acc := Array.to_list t :: !acc);
  List.sort compare !acc

let iter_objects r k =
  match Schema.entries r.sch with
  | [ _ ] -> iter_tuples r (fun t -> k t.(0))
  | _ ->
    type_error "iter_objects: relation %s does not have exactly one attribute"
      (Schema.to_string r.sch)

let dup r = make r.u r.sch (root r)

(* Relations hold BDD roots through stable handles, and every operation
   derives levels/permutations from the current order at call time, so
   reordering between operations is always safe. *)
let reorder r = Universe.reorder ~trigger:"relation" r.u

let pp ppf r =
  let entries = Schema.entries r.sch in
  let header = List.map (fun (e : Schema.entry) -> Attribute.name e.attr) entries in
  let rows =
    List.map
      (fun tup ->
        List.map2
          (fun (e : Schema.entry) v -> Domain.print_obj (Attribute.domain e.attr) v)
          entries tup)
      (tuples r)
  in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun w row -> max w (String.length (List.nth row i)))
          (String.length h) rows)
      header
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        let w = List.nth widths i in
        Format.fprintf ppf "%s%s" cell
          (String.make (w - String.length cell + 2) ' '))
      cells;
    Format.pp_print_newline ppf ()
  in
  print_row header;
  List.iter print_row rows

let to_string r = Format.asprintf "%a" pp r

(* -- weighted relations (mtbdd backend) ---------------------------------- *)

(* Per-tuple integer weights, carried as MTBDD terminal values.  Every
   function below needs the terminal-valued engine; on the boolean
   backends there is nowhere to keep a weight, so they are type errors
   rather than silently-lossy approximations. *)

let require_mtbdd name u =
  let k = Universe.backend_kind u in
  if k <> `Mtbdd then
    type_error "%s: requires an mtbdd universe (this one is %s)" name
      (B.kind_name k)

let of_weighted_tuples u sch wtuples =
  require_mtbdd "Relation.of_weighted_tuples" u;
  Universe.checkpoint u;
  let b = Universe.backend u in
  let rt =
    (* accumulate with addition so duplicate tuples sum their weights *)
    List.fold_left
      (fun acc (objs, w) ->
        if w < 0 then
          type_error "of_weighted_tuples: negative weight %d" w;
        B.wadd b acc (B.wscale b (tuple_root u sch objs) w))
      (B.zero b) wtuples
  in
  make u sch rt

let iter_weighted_tuples r k =
  require_mtbdd "Relation.iter_weighted_tuples" r.u;
  let b = backend r in
  let m = Universe.manager r.u in
  let levels = Schema.levels r.sch in
  let entries = Array.of_list (Schema.entries r.sch) in
  let tuple = Array.make (Array.length entries) 0 in
  B.iter_weighted b (root r) ~levels (fun values w ->
      Array.iteri
        (fun i (e : Schema.entry) ->
          tuple.(i) <- Fdd.decode m (Physdom.block e.phys) ~levels values)
        entries;
      k tuple w)

let weight_of_tuples r =
  let acc = ref [] in
  iter_weighted_tuples r (fun t w -> acc := (Array.to_list t, w) :: !acc);
  List.sort compare !acc

let fold_weighted r ~init ~f =
  let acc = ref init in
  iter_weighted_tuples r (fun t w -> acc := f !acc (Array.to_list t) w);
  !acc

(* Read the value of a constant (terminal) diagram: enumerate over no
   levels — the callback fires once with the terminal's weight, or not
   at all for the zero terminal. *)
let constant_weight b n =
  let w = ref 0 in
  B.iter_weighted b n ~levels:[||] (fun _ v -> w := v);
  !w

let total_weight r =
  require_mtbdd "Relation.total_weight" r.u;
  let b = backend r in
  constant_weight b
    (B.wsum_exist b (root r) (Array.to_list (Schema.levels r.sch)))

let weight_of r objs =
  require_mtbdd "Relation.weight_of" r.u;
  let b = backend r in
  let masked = B.wmul b (root r) (tuple_root r.u r.sch objs) in
  constant_weight b
    (B.wsum_exist b masked (Array.to_list (Schema.levels r.sch)))

let project_sum ?(label = "") r attrs =
  require_mtbdd "Relation.project_sum" r.u;
  List.iter
    (fun a ->
      if not (Schema.mem r.sch a) then
        type_error "project_sum: attribute %s not in schema %s"
          (Attribute.name a) (Schema.to_string r.sch))
    attrs;
  Universe.checkpoint r.u;
  profiled r.u ~op:"project_sum" ~label ~operands:[ r ] (fun () ->
      let b = backend r in
      let removed, kept =
        List.partition
          (fun (e : Schema.entry) ->
            List.exists (Attribute.equal e.attr) attrs)
          (Schema.entries r.sch)
      in
      let levels =
        List.concat_map
          (fun (e : Schema.entry) -> Array.to_list (Physdom.levels e.phys))
          removed
      in
      make r.u (Schema.make kept) (B.wsum_exist b (root r) levels))

let scale ?(label = "") r k =
  require_mtbdd "Relation.scale" r.u;
  if k < 0 then type_error "scale: negative factor %d" k;
  Universe.checkpoint r.u;
  profiled r.u ~op:"scale" ~label ~operands:[ r ] (fun () ->
      make r.u r.sch (B.wscale (backend r) (root r) k))

let threshold ?(label = "") r k =
  require_mtbdd "Relation.threshold" r.u;
  Universe.checkpoint r.u;
  profiled r.u ~op:"threshold" ~label ~operands:[ r ] (fun () ->
      make r.u r.sch (B.wthreshold (backend r) (root r) k))
