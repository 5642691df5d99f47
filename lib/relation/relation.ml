module M = Jedd_bdd.Manager
module Ops = Jedd_bdd.Ops
module Quant = Jedd_bdd.Quant
module Rep = Jedd_bdd.Replace
module Count = Jedd_bdd.Count
module Fdd = Jedd_bdd.Fdd
module Lv = Jedd_bdd.Levelized

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* A schema and a root in the manager of its universe. *)
type t = {
  u : Universe.t;
  sch : Schema.t;
  rt : M.node;
  mutable released : bool;
}

let same_universe name x y =
  if Universe.uid x.u <> Universe.uid y.u then
    type_error "%s: relations from different universes" name

(* -- live-root accounting (per universe) --------------------------------

   The counter is atomic and lives in the universe: [release] runs from
   GC finalisers, and the serving worker domain and the live updater
   thread create relations concurrently, so no path here takes a
   lock. *)

let live_root_count u = Atomic.get (Universe.live_roots u)

let release r =
  if not r.released then begin
    r.released <- true;
    Atomic.decr (Universe.live_roots r.u);
    M.delref (Universe.manager r.u) r.rt
  end

let make u sch rt =
  ignore (M.addref (Universe.manager u) rt);
  let r = { u; sch; rt; released = false } in
  Atomic.incr (Universe.live_roots u);
  (* The finaliser is the safety net of §4.2: eager releases come from
     [release], called by the interpreter's liveness analysis. *)
  Gc.finalise release r;
  r

let universe r = r.u
let schema r = r.sch
let man r = Universe.manager r.u

let root r =
  if r.released then invalid_arg "Relation: use after release";
  r.rt

(* -- profiling ----------------------------------------------------------- *)

let now_ms () = Sys.time () *. 1000.0

let profiled u ~op ~label ~operands f =
  match Universe.profile_level u with
  | Universe.Off -> f ()
  | lvl ->
    let snap = Universe.bdd_snapshot u in
    let t0 = now_ms () in
    let result = f () in
    let millis = now_ms () -. t0 in
    let bdd = Some (Universe.bdd_delta_since u snap) in
    let m = Universe.manager u in
    let operand_nodes = List.map (fun r -> Count.nodecount m r.rt) operands in
    let result_nodes = Count.nodecount m result.rt in
    let result_tuples =
      Count.satcount m result.rt
        ~over:(Array.to_list (Schema.levels result.sch))
    in
    let shapes =
      match lvl with
      | Universe.Shapes ->
        Some
          ( Count.shape m result.rt,
            List.map (fun r -> Count.shape m r.rt) operands )
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
   threads cannot both miss and declare duplicate scratch physdoms. *)
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

   [layout_parts] splits the change into the three pieces the kernels
   consume separately: the source-side restriction (applied eagerly — it
   only shrinks the operand, and only when a move narrows), the raw
   level-permutation pairs, and the levels of new high bits of wider
   targets that must be constrained to zero after the move. *)
let layout_parts m rt moves =
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
            Ops.restrict m rt (List.map (fun l -> (l, false)) highs)
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

(* The left operand of a join or compose absorbs the zero-constraint on
   any new high bits of the (unmaterialised) aligned right operand:
   [f /\ (perm(g) /\ Z)] = [(f /\ Z) /\ perm(g)], and conjoining a small
   cube into [f] is linear in [f]. *)
let absorb_zero_levels m rt zero_levels =
  if zero_levels = [] then rt
  else Ops.band m rt (Ops.cube m (List.map (fun l -> (l, false)) zero_levels))

let change_layout m rt moves =
  let rt, pairs, zero_levels = layout_parts m rt moves in
  let rt = if pairs = [] then rt else Rep.replace m rt (Rep.make_perm m pairs) in
  absorb_zero_levels m rt zero_levels

(* Equality constraint between two physical domains holding the same
   domain's values (used by attribute copy). *)
let phys_equality m pa pb =
  let la = Physdom.levels pa and lb = Physdom.levels pb in
  let wa = Array.length la and wb = Array.length lb in
  let k = min wa wb in
  let acc = ref M.one in
  for i = 0 to k - 1 do
    let eq =
      Ops.bbiimp m (M.var m la.(wa - 1 - i)) (M.var m lb.(wb - 1 - i))
    in
    acc := Ops.band m !acc eq
  done;
  (* extra high bits of the wider side must be zero *)
  let force_zero levels extra =
    for i = 0 to extra - 1 do
      acc := Ops.band m !acc (Ops.cube m [ (levels.(i), false) ])
    done
  in
  if wa > wb then force_zero la (wa - wb);
  if wb > wa then force_zero lb (wb - wa);
  !acc

(* -- construction -------------------------------------------------------- *)

let empty u sch = make u sch M.zero

let full u sch =
  Universe.checkpoint u;
  let m = Universe.manager u in
  let rt =
    List.fold_left
      (fun acc (en : Schema.entry) ->
        Ops.band m acc
          (Fdd.less_than_const m (Physdom.block en.phys)
             (Domain.size (Attribute.domain en.attr))))
      M.one (Schema.entries sch)
  in
  make u sch rt

(* The blocks of a schema's physical domains, in attribute order: the
   layout [Fdd.of_values] and [Fdd.iter_values] read tuples in. *)
let blocks sch =
  Array.of_list
    (List.map
       (fun (e : Schema.entry) -> Physdom.block e.phys)
       (Schema.entries sch))

let check_tuple sch objs =
  let entries = Schema.entries sch in
  if List.length objs <> List.length entries then
    type_error "tuple arity %d does not match schema %s" (List.length objs)
      (Schema.to_string sch);
  List.iter2
    (fun (e : Schema.entry) v ->
      let d = Attribute.domain e.attr in
      if v < 0 || v >= Domain.size d then
        type_error "object %d out of range for domain %s" v (Domain.name d))
    entries objs

(* Every tuple is checked before any node is made, so a bad tuple
   leaves no relation and no garbage behind. *)
let of_tuples u sch tuples =
  List.iter (check_tuple sch) tuples;
  Universe.checkpoint u;
  make u sch (Fdd.of_values (Universe.manager u) (blocks sch) tuples)

let tuple u sch objs = of_tuples u sch [ objs ]

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
        make r.u target (change_layout (man r) (root r) moves))
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

let set_op name op ?(label = "") x y =
  same_universe name x y;
  if not (Schema.same_attrs x.sch y.sch) then
    type_error "%s: incompatible schemas %s and %s" name
      (Schema.to_string x.sch) (Schema.to_string y.sch);
  Universe.checkpoint x.u;
  let y = coerce ~label y x.sch in
  let bdd_op =
    match op with `Union -> Ops.bor | `Inter -> Ops.band | `Diff -> Ops.bdiff
  in
  profiled x.u ~op:name ~label ~operands:[ x; y ] (fun () ->
      make x.u x.sch (bdd_op (man x) (root x) (root y)))

let union ?label x y = set_op "union" `Union ?label x y
let inter ?label x y = set_op "intersect" `Inter ?label x y
let diff ?label x y = set_op "difference" `Diff ?label x y

let equal x y =
  same_universe "equal" x y;
  if not (Schema.same_attrs x.sch y.sch) then
    type_error "equal: incompatible schemas %s and %s"
      (Schema.to_string x.sch) (Schema.to_string y.sch);
  let y = coerce y x.sch in
  Int.equal (root x) (root y)

let is_empty r = root r = M.zero

let size r =
  Count.satcount (man r) (root r) ~over:(Array.to_list (Schema.levels r.sch))

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
      let removed, kept =
        List.partition
          (fun (e : Schema.entry) -> List.exists (Attribute.equal e.attr) attrs)
          (Schema.entries r.sch)
      in
      let levels =
        List.concat_map
          (fun (e : Schema.entry) -> Array.to_list (Physdom.levels e.phys))
          removed
      in
      let m = man r in
      let rt =
        if levels = [] then root r
        else Quant.exist m (root r) (Quant.varset m levels)
      in
      make r.u (Schema.make kept) rt)

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
            ~avoid:
              (List.map (fun (e : Schema.entry) -> e.phys) (Schema.entries r.sch))
      in
      let entries =
        Schema.entries r.sch @ [ { Schema.attr = as_; phys = target } ]
      in
      let m = man r in
      let rt = Ops.band m (root r) (phys_equality m src target) in
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
     the fused product ([relprod_replace]), which
     conjoins/quantifies against the permuted operand in one recursion
     (§2.2.3's one-pass argument, extended to the re-layout itself). *)
  let y_pre, pairs, zero_levels = layout_parts (man x) (root y) moves in
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

(* [exist (band f (replace g pairs)) qlevels] in one recursion: the
   join/compose kernel. *)
let relprod_replace m f g pairs qlevels =
  let perm = Rep.make_perm m pairs in
  let cube = if qlevels = [] then M.one else Quant.varset m qlevels in
  Rep.relprod_replace m f g perm cube

let join ?(label = "") x cmp_x y cmp_y =
  same_universe "join" x y;
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
      let m = man x in
      let xr = absorb_zero_levels m (root x) zero_levels in
      (* Fused conjunction-with-permutation: no aligned intermediate. *)
      let rt = relprod_replace m xr y_pre pairs [] in
      make x.u (Schema.make (Schema.entries x.sch @ kept_right)) rt)

let compose ?(label = "") x cmp_x y cmp_y =
  same_universe "compose" x y;
  Universe.checkpoint x.u;
  profiled x.u ~op:"compose" ~label ~operands:[ x; y ] (fun () ->
      let y_pre, pairs, zero_levels, y_entries' =
        align "compose" x cmp_x y cmp_y
      in
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
      let m = man x in
      let xr = absorb_zero_levels m (root x) zero_levels in
      let rt = relprod_replace m xr y_pre pairs qlevels in
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
      let m = man r in
      let constraint_bdd =
        List.fold_left
          (fun acc (a, v) ->
            let e = Schema.find r.sch a in
            let d = Attribute.domain a in
            if v < 0 || v >= Domain.size d then
              type_error "select: object %d out of range for domain %s" v
                (Domain.name d);
            Ops.band m acc (Fdd.ithvar m (Physdom.block e.phys) v))
          M.one bindings
      in
      make r.u r.sch (Ops.band m (root r) constraint_bdd))

(* -- extraction -------------------------------------------------------------- *)

let iter_tuples r k = Fdd.iter_values (man r) (blocks r.sch) (root r) k

let tuples r =
  let acc = ref [] in
  iter_tuples r (fun t -> acc := Array.to_list t :: !acc);
  List.sort compare !acc

let iter_objects r k =
  match Schema.entries (schema r) with
  | [ _ ] -> iter_tuples r (fun t -> k t.(0))
  | _ ->
    type_error "iter_objects: relation %s does not have exactly one attribute"
      (Schema.to_string (schema r))

let dup r = make r.u r.sch (root r)

let pp ppf r =
  let entries = Schema.entries (schema r) in
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

(* -- levelized dumps (serialization) --------------------------------------- *)

let export r = Lv.of_manager (man r) (root r)

(* Wrap a root the caller holds one reference on, taking that reference
   over. *)
let adopt u sch rt =
  let r = make u sch rt in
  M.delref (Universe.manager u) rt;
  r

let import u sch d = adopt u sch (Lv.to_manager (Universe.manager u) d)

let transfer tr u sch r =
  if M.uid (Jedd_bdd.Transfer.src tr) <> M.uid (man r) then
    type_error "Relation.transfer: the relation is not in the source manager";
  if M.uid (Jedd_bdd.Transfer.dst tr) <> M.uid (Universe.manager u) then
    type_error "Relation.transfer: the universe is not the destination";
  adopt u sch (Jedd_bdd.Transfer.copy tr (root r))
