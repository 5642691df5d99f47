type man = Manager.t
type node = Manager.node

let zero = Manager.zero
let one = Manager.one

(* Permutations are interned: [make_perm] canonicalises the pair list and
   hands back the same [perm] (same [id]) for the same mapping.  The id
   is folded into operation-cache keys, so repeated fused calls with the
   same permutation — the common case, a fixpoint re-running one layout
   change every iteration — hit the cache across top-level calls. *)
type perm = {
  id : int; (* 0 is the identity *)
  map : int array; (* level -> level; identity beyond the array *)
  ident : bool;
}

let intern_table : ((int * int) list, perm) Hashtbl.t = Hashtbl.create 32
let next_perm_id = ref 1

(* The intern table is global, so two threads may hit it at once: the
   serving worker domain answering queries and the live updater thread
   re-solving an edit on its own universe.  Interning is rare (layout
   changes, not per-operation), so one mutex is plenty. *)
let intern_lock = Mutex.create ()

let identity_perm = { id = 0; map = [||]; ident = true }

let make_perm _m pairs =
  let pairs = List.filter (fun (s, d) -> s <> d) pairs in
  let pairs = List.sort (fun (a, _) (b, _) -> compare a b) pairs in
  if pairs = [] then identity_perm
  else begin
    Mutex.lock intern_lock;
    let found = Hashtbl.find_opt intern_table pairs in
    Mutex.unlock intern_lock;
    match found with
    | Some p -> p
    | None ->
      let targets = Hashtbl.create 16 in
      let max_src =
        List.fold_left
          (fun acc (src, dst) ->
            if src < 0 || dst < 0 then
              invalid_arg "Replace.make_perm: negative level";
            if Hashtbl.mem targets dst then
              invalid_arg "Replace.make_perm: non-injective permutation";
            Hashtbl.add targets dst ();
            max acc src)
          (-1) pairs
      in
      let map = Array.init (max_src + 1) (fun i -> i) in
      List.iter
        (fun (src, dst) ->
          if map.(src) <> src then
            invalid_arg "Replace.make_perm: duplicate source level";
          map.(src) <- dst)
        pairs;
      Mutex.lock intern_lock;
      let p =
        (* re-check: another thread may have interned the same mapping *)
        match Hashtbl.find_opt intern_table pairs with
        | Some p -> p
        | None ->
          let p = { id = !next_perm_id; map; ident = false } in
          incr next_perm_id;
          Hashtbl.add intern_table pairs p;
          p
      in
      Mutex.unlock intern_lock;
      p
  end

let identity _m = identity_perm
let is_identity p = p.ident

let apply_level p lvl =
  if lvl < Array.length p.map then Array.unsafe_get p.map lvl else lvl

(* -- plain replace (rebuilds via ite, handles arbitrary injections) ----- *)

let replace m f p =
  if is_identity p then f
  else begin
    let memo = Hashtbl.create 1024 in
    let rec go f =
      if Manager.is_terminal f then f
      else
        match Hashtbl.find_opt memo f with
        | Some r -> r
        | None ->
          let r0 = go (Manager.low m f) in
          let r1 = go (Manager.high m f) in
          let lvl = apply_level p (Manager.level m f) in
          (* [ite] reinserts the variable at its new position even when
             the permutation is not order-preserving. *)
          let r = Ops.ite m (Manager.var m lvl) r1 r0 in
          Hashtbl.add memo f r;
          r
    in
    go f
  end

(* -- fused kernels ------------------------------------------------------ *)

let tag_perm_ok = Manager.register_tag "perm-order-ok"
let tag_relprod_replace = Manager.register_tag "relprod-replace"
let tag_replace_exist = Manager.register_tag "replace-exist"

(* Counters exposed for tests and the benchmark JSON: how often the fused
   recursion ran vs. how often a non-order-preserving permutation forced
   the materialising fallback. *)
let fused_hits = Atomic.make 0
let fallback_hits = Atomic.make 0
let fused_stats () = (Atomic.get fused_hits, Atomic.get fallback_hits)

(* The fused recursions relabel each node of the traversed operand in
   place, which is sound iff mapped levels still strictly increase along
   every edge of its DAG.  The inner recursion memoises through the
   shared cache (keyed on node and permutation id); the top-level verdict
   additionally goes into a dedicated table because it is a structural
   property of the node graph — it survives cache invalidation and only
   dies when GC recycles handles, so fixpoints do not re-traverse their
   operands after every collection of the operation cache. *)
let ok_memo : (int * int * int, int * bool) Hashtbl.t =
  Hashtbl.create 256

(* The verdict memo is global (keyed by manager uid); the serving worker
   domain and the live updater thread probe it concurrently, each for
   its own manager, so its accesses are serialised.  The traversal
   itself runs outside the lock — it touches only that manager. *)
let ok_memo_lock = Mutex.create ()

let order_preserving_on m p f =
  let key = (Manager.uid m, p.id, f) in
  let gcs = Manager.gc_count m in
  Mutex.lock ok_memo_lock;
  let cached = Hashtbl.find_opt ok_memo key in
  Mutex.unlock ok_memo_lock;
  match cached with
  | Some (stamp, ok) when stamp = gcs -> ok
  | _ ->
    let rec ok f =
      if Manager.is_terminal f then true
      else
        match Manager.cache_lookup m tag_perm_ok f p.id 0 with
        | 1 -> true
        | 0 -> false
        | _ ->
          let ml = apply_level p (Manager.level m f) in
          let child_ok c =
            Manager.is_terminal c
            || (ml < apply_level p (Manager.level m c) && ok c)
          in
          let r = child_ok (Manager.low m f) && child_ok (Manager.high m f) in
          Manager.cache_store m tag_perm_ok f p.id 0 (if r then 1 else 0);
          r
    in
    let r = ok f in
    Mutex.lock ok_memo_lock;
    if Hashtbl.length ok_memo > 65536 then Hashtbl.reset ok_memo;
    Hashtbl.replace ok_memo key (gcs, r);
    Mutex.unlock ok_memo_lock;
    r

(* Fold the permutation id and the quantification cube into one cache-key
   slot.  Node handles stay far below 2^31 in any realistic run (the
   node arrays would not fit in memory otherwise), so the packing is
   exact. *)
let pack_key perm_id cube = (perm_id lsl 31) lor cube

(* Advance the cube past variables above [lvl] (cf. Quant.cube_from). *)
let rec cube_from m cube lvl =
  if Manager.is_terminal cube || Manager.level m cube >= lvl then cube
  else cube_from m (Manager.high m cube) lvl

(* [fused_relprod m f g p cube] = exist cube (f /\ replace g p), in one
   recursion, without building [replace g p].  Requires [p] to be
   order-preserving on [g] (checked by the caller).  [g]'s levels are
   mapped on the fly; the cube lives in the shared, post-permutation
   variable space. *)
let rec fused_relprod m f g p cube =
  if f = zero || g = zero then zero
  else if Manager.is_terminal f && Manager.is_terminal g then one
  else if g = one && Manager.is_terminal cube then f
  else if
    (* the permutation is identity beyond its map array: a pure-band tail
       whose [g] sits entirely below the remapped region is just f /\ g *)
    f = one && Manager.is_terminal cube
    && Manager.level m g >= Array.length p.map
  then g
  else begin
    let lf = Manager.level m f in
    let lg =
      if Manager.is_terminal g then Manager.terminal_level
      else apply_level p (Manager.level m g)
    in
    let lvl = if lf < lg then lf else lg in
    let cube = cube_from m cube lvl in
    let key_c = pack_key p.id cube in
    let r = Manager.cache_lookup m tag_relprod_replace f g key_c in
    if r >= 0 then r
    else
      let f0, f1 =
        if lf = lvl then (Manager.low m f, Manager.high m f) else (f, f)
      in
      let g0, g1 =
        if lg = lvl then (Manager.low m g, Manager.high m g) else (g, g)
      in
      let r =
        if (not (Manager.is_terminal cube)) && Manager.level m cube = lvl
        then begin
          let r0 = fused_relprod m f0 g0 p cube in
          if r0 = one then one
          else Ops.bor m r0 (fused_relprod m f1 g1 p cube)
        end
        else
          Manager.mk m lvl (fused_relprod m f0 g0 p cube)
            (fused_relprod m f1 g1 p cube)
      in
      Manager.cache_store m tag_relprod_replace f g key_c r;
      r
  end

let relprod_replace m f g p cube =
  if is_identity p then
    if Manager.is_terminal cube then Ops.band m f g
    else Quant.relprod m f g cube
  else if order_preserving_on m p g then begin
    Atomic.incr fused_hits;
    fused_relprod m f g p cube
  end
  else begin
    (* Non-order-preserving move: materialise, as the unfused pipeline
       would.  Rare in practice — the runtime's block layouts keep bit
       order — but required for full generality. *)
    Atomic.incr fallback_hits;
    let g' = replace m g p in
    if Manager.is_terminal cube then Ops.band m f g'
    else Quant.relprod m f g' cube
  end

(* [fused_replace_exist m f p cube] = replace (exist f cube) p in one
   recursion: quantified levels disappear, surviving levels are relabeled
   on the way back up.  The cube lives in [f]'s original variable space.
   Requires [p] order-preserving on [f] (quantified levels included —
   checking the survivors only would need a second traversal and the
   stricter test almost never rejects more). *)
let rec fused_replace_exist m f p cube =
  if Manager.is_terminal f then f
  else if
    (* nothing left to quantify and every remaining level is fixed *)
    Manager.is_terminal cube && Manager.level m f >= Array.length p.map
  then f
  else begin
    let lvl = Manager.level m f in
    let cube = cube_from m cube lvl in
    let key_c = pack_key p.id cube in
    let r = Manager.cache_lookup m tag_replace_exist f key_c 0 in
    if r >= 0 then r
    else
      let r =
        if (not (Manager.is_terminal cube)) && Manager.level m cube = lvl
        then begin
          let r0 = fused_replace_exist m (Manager.low m f) p cube in
          if r0 = one then one
          else Ops.bor m r0 (fused_replace_exist m (Manager.high m f) p cube)
        end
        else
          Manager.mk m (apply_level p lvl)
            (fused_replace_exist m (Manager.low m f) p cube)
            (fused_replace_exist m (Manager.high m f) p cube)
      in
      Manager.cache_store m tag_replace_exist f key_c 0 r;
      r
  end

let replace_exist m f p cube =
  if is_identity p then Quant.exist m f cube
  else if order_preserving_on m p f then begin
    Atomic.incr fused_hits;
    fused_replace_exist m f p cube
  end
  else begin
    Atomic.incr fallback_hits;
    replace m (Quant.exist m f cube) p
  end
