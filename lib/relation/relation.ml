module Fdd = Jedd_bdd.Fdd
module B = Backend

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(* A root has the node type of its universe's engine.  Operations on
   one relation use that engine directly; a binary operation first
   proves, in [same_universe], that both engines are one. *)
type 'n rel = {
  u : Universe.t;
  e : 'n B.engine;
  sch : Schema.t;
  rt : 'n;
  lc : int Atomic.t;  (** the universe's live-root counter, captured so
                          [release] (a finaliser) never takes a lock *)
  mutable released : bool;
}

type t = R : 'n rel -> t [@@unboxed]

let same_universe (type a b) name (e : a B.engine) (y : b rel) : a rel =
  match Type.Id.provably_equal e.id y.e.id with
  | Some Type.Equal -> y
  | None -> type_error "%s: relations from different universes" name

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

let release_rel (r : _ rel) =
  if not r.released then begin
    r.released <- true;
    Atomic.decr r.lc;
    r.e.ops.delref r.rt
  end

let release (R r) = release_rel r

let make u (e : 'n B.engine) sch (rt : 'n) =
  e.ops.addref rt;
  let lc = live_counter u in
  let r = { u; e; sch; rt; lc; released = false } in
  Atomic.incr lc;
  (* The finaliser is the safety net of §4.2: eager releases come from
     [release], called by the interpreter's liveness analysis. *)
  Gc.finalise release_rel r;
  r

let universe (R r) = r.u
let schema (R r) = r.sch

let root r =
  if r.released then invalid_arg "Relation: use after release";
  r.rt

(* -- profiling ----------------------------------------------------------- *)

let now_ms () = Sys.time () *. 1000.0

let profiled u ~op ~label ~(operands : 'n rel list) (f : unit -> 'n rel) :
    'n rel =
  match Universe.profile_level u with
  | Universe.Off -> f ()
  | lvl ->
    let snap = Universe.bdd_snapshot u in
    let t0 = now_ms () in
    let result = f () in
    let millis = now_ms () -. t0 in
    let bdd = Some (Universe.bdd_delta_since u snap) in
    let o = result.e.ops in
    let operand_nodes = List.map (fun r -> o.nodecount r.rt) operands in
    let result_nodes = o.nodecount result.rt in
    let result_tuples =
      o.satcount result.rt ~over:(Array.to_list (Schema.levels result.sch))
    in
    let shapes =
      match lvl with
      | Universe.Shapes ->
        Some (o.shape result.rt, List.map (fun r -> o.shape r.rt) operands)
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
let layout_parts (o : 'n B.ops) (rt : 'n) moves =
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
            o.restrict rt (List.map (fun l -> (l, false)) highs)
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
let absorb_zero_levels (o : 'n B.ops) (rt : 'n) zero_levels =
  if zero_levels = [] then rt
  else o.band rt (o.cube (List.map (fun l -> (l, false)) zero_levels))

let change_layout (o : 'n B.ops) (rt : 'n) moves =
  let rt, pairs, zero_levels = layout_parts o rt moves in
  let rt = if pairs = [] then rt else o.replace rt pairs in
  absorb_zero_levels o rt zero_levels

(* Equality constraint between two physical domains holding the same
   domain's values (used by attribute copy). *)
let phys_equality (o : 'n B.ops) pa pb : 'n =
  let la = Physdom.levels pa and lb = Physdom.levels pb in
  let wa = Array.length la and wb = Array.length lb in
  let k = min wa wb in
  let acc = ref (o.one ()) in
  for i = 0 to k - 1 do
    let eq = o.biimp_vars la.(wa - 1 - i) lb.(wb - 1 - i) in
    acc := o.band !acc eq
  done;
  (* extra high bits of the wider side must be zero *)
  let force_zero levels extra =
    for i = 0 to extra - 1 do
      acc := o.band !acc (o.cube [ (levels.(i), false) ])
    done
  in
  if wa > wb then force_zero la (wa - wb);
  if wb > wa then force_zero lb (wb - wa);
  !acc

(* -- construction -------------------------------------------------------- *)

let empty u sch =
  let (B.Engine e) = Universe.backend u in
  R (make u e sch (e.ops.zero ()))

let full u sch =
  Universe.checkpoint u;
  let (B.Engine e) = Universe.backend u in
  let o = e.ops in
  let rt =
    List.fold_left
      (fun acc (en : Schema.entry) ->
        o.band acc
          (o.less_than (Physdom.block en.phys)
             (Domain.size (Attribute.domain en.attr))))
      (o.one ()) (Schema.entries sch)
  in
  R (make u e sch rt)

let tuple_root (o : 'n B.ops) sch objs : 'n =
  let entries = Schema.entries sch in
  if List.length objs <> List.length entries then
    type_error "tuple arity %d does not match schema %s" (List.length objs)
      (Schema.to_string sch);
  List.fold_left2
    (fun acc (e : Schema.entry) v ->
      let d = Attribute.domain e.attr in
      if v < 0 || v >= Domain.size d then
        type_error "object %d out of range for domain %s" v (Domain.name d);
      o.band acc (o.ithval (Physdom.block e.phys) v))
    (o.one ()) entries objs

let tuple u sch objs =
  Universe.checkpoint u;
  let (B.Engine e) = Universe.backend u in
  R (make u e sch (tuple_root e.ops sch objs))

let of_tuples u sch tuples =
  Universe.checkpoint u;
  let (B.Engine e) = Universe.backend u in
  let o = e.ops in
  let rt =
    List.fold_left
      (fun acc objs -> o.bor acc (tuple_root o sch objs))
      (o.zero ()) tuples
  in
  R (make u e sch rt)

(* -- layout coercion ------------------------------------------------------ *)

let coerce_rel ?(label = "") (r : 'n rel) target : 'n rel =
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
    if same_order then r else make r.u r.e target (root r)
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
        make r.u r.e target (change_layout r.e.ops (root r) moves))
  end

let coerce ?label (R r) target = R (coerce_rel ?label r target)

let replace ?(label = "") (R r) assignment =
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
  R (coerce_rel ~label r target)

(* -- set operations -------------------------------------------------------- *)

let set_op name op ?(label = "") (R x) (R y) =
  let y = same_universe name x.e y in
  if not (Schema.same_attrs x.sch y.sch) then
    type_error "%s: incompatible schemas %s and %s" name
      (Schema.to_string x.sch) (Schema.to_string y.sch);
  Universe.checkpoint x.u;
  let y = coerce_rel ~label y x.sch in
  let o = x.e.ops in
  let bdd_op =
    match op with `Union -> o.bor | `Inter -> o.band | `Diff -> o.bdiff
  in
  R
    (profiled x.u ~op:name ~label ~operands:[ x; y ] (fun () ->
         make x.u x.e x.sch (bdd_op (root x) (root y))))

let union ?label x y = set_op "union" `Union ?label x y
let inter ?label x y = set_op "intersect" `Inter ?label x y
let diff ?label x y = set_op "difference" `Diff ?label x y

let equal (R x) (R y) =
  let y = same_universe "equal" x.e y in
  if not (Schema.same_attrs x.sch y.sch) then
    type_error "equal: incompatible schemas %s and %s"
      (Schema.to_string x.sch) (Schema.to_string y.sch);
  let y = coerce_rel y x.sch in
  x.e.ops.equal (root x) (root y)

let is_empty (R r) =
  r.e.ops.is_zero (root r)

let size (R r) =
  r.e.ops.satcount (root r) ~over:(Array.to_list (Schema.levels r.sch))

(* -- projection and attribute operations ----------------------------------- *)

let project_away ?(label = "") (R r) attrs =
  List.iter
    (fun a ->
      if not (Schema.mem r.sch a) then
        type_error "project: attribute %s not in schema %s" (Attribute.name a)
          (Schema.to_string r.sch))
    attrs;
  Universe.checkpoint r.u;
  R
    (profiled r.u ~op:"project" ~label ~operands:[ r ] (fun () ->
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
         make r.u r.e (Schema.make kept) (r.e.ops.exist (root r) levels)))

let rename ?(label = "") (R r) renames =
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
  R (make r.u r.e (Schema.make entries) (root r))

let copy ?(label = "") ?phys (R r) a ~as_ =
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
  R
    (profiled r.u ~op:"copy" ~label ~operands:[ r ] (fun () ->
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
         let o = r.e.ops in
         let rt = o.band (root r) (phys_equality o src target) in
         make r.u r.e (Schema.make entries) rt))

(* -- join and composition --------------------------------------------------- *)

(* Shared front half of join and compose: dynamic type checks, then
   relayout of the right operand so compared attributes share physical
   domains with the left and everything else is collision-free. *)
let align name (x : 'n rel) cmp_x (y : 'n rel) cmp_y =
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
  let y_pre, pairs, zero_levels = layout_parts x.e.ops (root y) moves in
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

let join ?(label = "") (R x) cmp_x (R y) cmp_y =
  let y = same_universe "join" x.e y in
  Universe.checkpoint x.u;
  R
    (profiled x.u ~op:"join" ~label ~operands:[ x; y ] (fun () ->
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
         let o = x.e.ops in
         let xr = absorb_zero_levels o (root x) zero_levels in
         (* Fused conjunction-with-permutation: no aligned intermediate. *)
         let rt = o.relprod_replace xr y_pre pairs [] in
         make x.u x.e (Schema.make (Schema.entries x.sch @ kept_right)) rt))

let compose ?(label = "") (R x) cmp_x (R y) cmp_y =
  let y = same_universe "compose" x.e y in
  Universe.checkpoint x.u;
  R
    (profiled x.u ~op:"compose" ~label ~operands:[ x; y ] (fun () ->
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
         let o = x.e.ops in
         let xr = absorb_zero_levels o (root x) zero_levels in
         let rt = o.relprod_replace xr y_pre pairs qlevels in
         make x.u x.e (Schema.make (kept_left @ kept_right)) rt))

let select ?(label = "") (R r) bindings =
  List.iter
    (fun (a, _) ->
      if not (Schema.mem r.sch a) then
        type_error "select: attribute %s not in schema %s" (Attribute.name a)
          (Schema.to_string r.sch))
    bindings;
  Universe.checkpoint r.u;
  R
    (profiled r.u ~op:"select" ~label ~operands:[ r ] (fun () ->
         let o = r.e.ops in
         let constraint_bdd =
           List.fold_left
             (fun acc (a, v) ->
               let e = Schema.find r.sch a in
               let d = Attribute.domain a in
               if v < 0 || v >= Domain.size d then
                 type_error "select: object %d out of range for domain %s" v
                   (Domain.name d);
               o.band acc (o.ithval (Physdom.block e.phys) v))
             (o.one ()) bindings
         in
         make r.u r.e r.sch (o.band (root r) constraint_bdd)))

(* -- extraction -------------------------------------------------------------- *)

let iter_tuples (R r) k =
  let m = Universe.manager r.u in
  let levels = Schema.levels r.sch in
  let entries = Array.of_list (Schema.entries r.sch) in
  let tuple = Array.make (Array.length entries) 0 in
  r.e.ops.iter_assignments (root r) ~levels (fun values ->
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
  match Schema.entries (schema r) with
  | [ _ ] -> iter_tuples r (fun t -> k t.(0))
  | _ ->
    type_error "iter_objects: relation %s does not have exactly one attribute"
      (Schema.to_string (schema r))

let dup (R r) = R (make r.u r.e r.sch (root r))

(* Relations hold BDD roots through stable handles, and every operation
   derives levels/permutations from the current order at call time, so
   reordering between operations is always safe. *)
let reorder r = Universe.reorder ~trigger:"relation" (universe r)

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

type levelized = {
  export : t -> Jedd_bdd.Levelized.t;
  import : Schema.t -> Jedd_bdd.Levelized.t -> t;
}

let levelized u =
  let (B.Engine e) = Universe.backend u in
  Option.map
    (fun (lv : _ B.levelized) ->
      {
        export = (fun (R r) -> lv.export (root (same_universe "export" e r)));
        import =
          (fun sch d ->
            let rt = lv.import d in
            let r = make u e sch rt in
            e.ops.delref rt;
            R r);
      })
    e.levelized

(* -- weighted relations (mtbdd backend) ---------------------------------- *)

(* Per-tuple integer weights, carried as MTBDD terminal values.  Every
   function below needs the engine's weights; on the in-core engine
   there is nowhere to keep a weight, so they are type errors rather
   than silently-lossy approximations. *)

let weights name (e : 'n B.engine) : 'n B.weights =
  match e.weights with
  | Some w -> w
  | None ->
    type_error "%s: requires an mtbdd universe (this one is %s)" name
      (B.kind_name e.kind)

let of_weighted_tuples u sch wtuples =
  let (B.Engine e) = Universe.backend u in
  let w = weights "Relation.of_weighted_tuples" e in
  Universe.checkpoint u;
  let o = e.ops in
  let rt =
    (* accumulate with addition so duplicate tuples sum their weights *)
    List.fold_left
      (fun acc (objs, k) ->
        if k < 0 then type_error "of_weighted_tuples: negative weight %d" k;
        w.add acc (w.scale (tuple_root o sch objs) k))
      (o.zero ()) wtuples
  in
  R (make u e sch rt)

let iter_weighted_tuples (R r) k =
  let w = weights "Relation.iter_weighted_tuples" r.e in
  let m = Universe.manager r.u in
  let levels = Schema.levels r.sch in
  let entries = Array.of_list (Schema.entries r.sch) in
  let tuple = Array.make (Array.length entries) 0 in
  w.iter_weighted (root r) ~levels (fun values weight ->
      Array.iteri
        (fun i (e : Schema.entry) ->
          tuple.(i) <- Fdd.decode m (Physdom.block e.phys) ~levels values)
        entries;
      k tuple weight)

let weight_of_tuples r =
  let acc = ref [] in
  iter_weighted_tuples r (fun t w -> acc := (Array.to_list t, w) :: !acc);
  List.sort compare !acc

let fold_weighted r ~init ~f =
  let acc = ref init in
  iter_weighted_tuples r (fun t w -> acc := f !acc (Array.to_list t) w);
  !acc

(* The weight summed over every assignment of [levels]: project them
   away, then read the constant (terminal) diagram left — the callback
   fires once with the terminal's weight, or not at all for zero. *)
let summed_weight (w : _ B.weights) n levels =
  let total = ref 0 in
  w.iter_weighted (w.sum_exist n levels) ~levels:[||] (fun _ v -> total := v);
  !total

let total_weight (R r) =
  let w = weights "Relation.total_weight" r.e in
  summed_weight w (root r) (Array.to_list (Schema.levels r.sch))

let weight_of (R r) objs =
  let w = weights "Relation.weight_of" r.e in
  let masked = w.mul (root r) (tuple_root r.e.ops r.sch objs) in
  summed_weight w masked (Array.to_list (Schema.levels r.sch))

let project_sum ?(label = "") (R r) attrs =
  let w = weights "Relation.project_sum" r.e in
  List.iter
    (fun a ->
      if not (Schema.mem r.sch a) then
        type_error "project_sum: attribute %s not in schema %s"
          (Attribute.name a) (Schema.to_string r.sch))
    attrs;
  Universe.checkpoint r.u;
  R
    (profiled r.u ~op:"project_sum" ~label ~operands:[ r ] (fun () ->
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
         make r.u r.e (Schema.make kept) (w.sum_exist (root r) levels)))

let scale ?(label = "") (R r) k =
  let w = weights "Relation.scale" r.e in
  if k < 0 then type_error "scale: negative factor %d" k;
  Universe.checkpoint r.u;
  R
    (profiled r.u ~op:"scale" ~label ~operands:[ r ] (fun () ->
         make r.u r.e r.sch (w.scale (root r) k)))

let threshold ?(label = "") (R r) k =
  let w = weights "Relation.threshold" r.e in
  Universe.checkpoint r.u;
  R
    (profiled r.u ~op:"threshold" ~label ~operands:[ r ] (fun () ->
         make r.u r.e r.sch (w.threshold (root r) k)))
