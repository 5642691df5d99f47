type node = int

let zero = 0
let one = 1
let terminal_level = max_int lsr 1

(* -- Operation-cache tag registry --------------------------------------- *)

(* Every algorithm module that memoises through the shared operation
   cache registers a tag at module-initialisation time.  The registry is
   global (tags are plain ints baked into cache keys, identical for every
   manager) and gives each tag a stable human-readable name so per-tag
   statistics can be reported by the profiler and the benchmark JSON. *)

let max_tags = 64
let tag_names = Array.make max_tags ""
let registered_tags = ref 0

let register_tag name =
  let t = !registered_tags in
  if t >= max_tags then invalid_arg "Manager.register_tag: tag space exhausted";
  incr registered_tags;
  tag_names.(t) <- name;
  t

let tag_name t =
  if t < 0 || t >= !registered_tags then invalid_arg "Manager.tag_name"
  else tag_names.(t)

type cache_stat = {
  tag : int;
  name : string;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
}

(* Growable int vector used by the per-level node index a reorder
   session maintains. *)
type vec = { mutable data : int array; mutable len : int }

let vec_make () = { data = Array.make 16 0; len = 0 }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (2 * v.len) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

(* -- Parallel-mode state ------------------------------------------------ *)

(* A frozen manager can be switched into parallel mode for concurrent
   readers: the unique table stays one hash table but its buckets are
   guarded by a fixed set of stripe locks, node allocation is served
   from per-domain chunks carved off the shared free list, and every
   domain memoises through its own operation cache (the shared cache of
   the sequential mode is left untouched and resumes on exit).  Frozen
   managers never collect, reorder, count references or allocate
   variables, so nothing else needs coordinating. *)

let max_slots = 64
let chunk_cap = 256
let nstripes = 256
let stripe_mask = nstripes - 1

(* A node carved out of the free list into a domain-local chunk carries
   [lvl] = [chunk_mark]: not free (the free-list rebuild must not
   re-thread it) and not allocated (GC must not sweep or hash it). *)
let chunk_mark = -2

type chunk = { cnodes : int array; mutable clen : int }

type slot_state = {
  s_cache : int array; (* same geometry as the shared cache *)
  s_hit : int array;
  s_miss : int array;
  s_store : int array;
  s_evict : int array;
  s_chunk : chunk;
}

type par_state = {
  p_epoch : int;
  stripe_locks : Mutex.t array;
  alloc_lock : Mutex.t;
  slot_lock : Mutex.t;
  slots : slot_state option array;
  mutable nslots : int;
  mutable depth : int; (* enter_parallel nesting *)
}

(* A free node has [lvl] = -1 and its [hnext] field threads the free
   list.  Allocated nodes thread [hnext] through their unique-table
   bucket. *)
type t = {
  uid : int;
  mutable nvars : int;
  mutable capacity : int;
  mutable lvl : int array;
  mutable lo : int array;
  mutable hi : int array;
  mutable refc : int array;
  mutable hnext : int array;
  mutable buckets : int array;
  mutable bucket_mask : int;
  mutable free_head : int;
  mutable free_count : int;
  mutable allocated : int; (* nodes ever handed out and not swept *)
  mutable peak : int;
  mutable gcs : int;
  mutable gc_millis : float;
  mutable grows : int;
  mutable grow_millis : float;
  mutable node_limit : int; (* capacity ceiling; 0 = unlimited *)
  (* N-way set-associative operation cache.  Each entry is
     [entry_ints] consecutive ints: tag, a, b, c, result, generation.
     A set is [ways] consecutive entries; lookups scan the set and
     promote hits toward the front, stores insert at the front and
     push the rest down (evicting the last way). *)
  cache : int array;
  ways : int;
  set_mask : int;
  mutable cache_gen : int;
  hit_ct : int array; (* per tag *)
  miss_ct : int array;
  store_ct : int array;
  evict_ct : int array;
  mutable marked : Bytes.t;
  mutable visited : Bytes.t;
  (* Dynamic variable order.  A variable keeps its id (allocation order)
     for its whole life; [var2level]/[level2var] map between ids and the
     current physical levels.  Both are the identity until the first
     reorder. *)
  mutable var2level : int array;
  mutable level2var : int array;
  mutable swaps : int; (* adjacent level exchanges performed *)
  mutable order_gen : int; (* bumped on every swap; stamps order-dependent memos *)
  mutable reorders : int; (* reorder passes recorded via [record_reorder] *)
  mutable reorder_millis : float;
  mutable reorder_aborts : int; (* max-growth aborts reported by the engine *)
  mutable reorder_hook : (unit -> unit) option;
  mutable reorder_threshold : int; (* 0 disables the auto trigger *)
  mutable in_reorder : bool;
  (* Per-level index of allocated nodes, alive only inside a reorder
     session ([reorder_begin] .. [reorder_end]); rebuilt by [gc]. *)
  mutable level_index : vec array option;
  (* Parallel mode: [Some p] between [enter_parallel]/[exit_parallel]. *)
  mutable par : par_state option;
  mutable par_epochs : int;
  (* Frozen (read-only arena) mode: refcounts, GC, reordering and
     variable allocation are all disabled; see [freeze]. *)
  mutable frozen : bool;
  mutable frozen_live : int; (* allocated nodes right after [freeze] *)
  mutable frozen_sweeps : int;
  (* Cumulative parallel-mode statistics (survive [exit_parallel]). *)
  mutable chunk_refills : int;
  mutable par_domains_used : int;
}

let free_mark = -1
let entry_ints = 6

let hash3 a b c mask =
  let h = (a * 12582917) lxor (b * 4256249) lxor (c * 0x9e3779b9) in
  (h lxor (h lsr 16)) land mask

let next_uid = ref 0

exception Out_of_nodes

exception Frozen of string
(* Raised by every mutating entry point of a frozen manager. *)

let frozen_error what =
  raise
    (Frozen
       (Printf.sprintf
          "%s: the universe is frozen (read-only serving mode)" what))

let create ?(node_capacity = 1 lsl 15) ?(cache_bits = 14) ?(cache_ways = 4)
    ?(node_limit = 0) () =
  if cache_ways < 1 then invalid_arg "Manager.create: cache_ways must be >= 1";
  incr next_uid;
  let uid = !next_uid in
  let rec pow2_below n acc = if acc * 2 > n then acc else pow2_below n (acc * 2) in
  let capacity = max 1024 node_capacity in
  (* A node budget is a true ceiling: the initial table must fit under it
     too (rounded down to a power of two for mask indexing). *)
  let capacity =
    if node_limit > 0 && capacity > node_limit then
      pow2_below (max 1024 node_limit) 1024
    else capacity
  in
  let entries = max cache_ways (1 lsl cache_bits) in
  let sets = entries / cache_ways in
  (* round the set count down to a power of two for mask indexing *)
  let sets = pow2_below sets 1 in
  let m =
    {
      uid;
      nvars = 0;
      capacity;
      lvl = Array.make capacity free_mark;
      lo = Array.make capacity 0;
      hi = Array.make capacity 0;
      refc = Array.make capacity 0;
      hnext = Array.make capacity (-1);
      buckets = Array.make capacity (-1);
      bucket_mask = capacity - 1;
      free_head = -1;
      free_count = 0;
      allocated = 2;
      peak = 2;
      gcs = 0;
      gc_millis = 0.0;
      grows = 0;
      grow_millis = 0.0;
      node_limit;
      cache = Array.make (sets * cache_ways * entry_ints) (-1);
      ways = cache_ways;
      set_mask = sets - 1;
      cache_gen = 1; (* entries start at gen 0: all invalid *)
      hit_ct = Array.make max_tags 0;
      miss_ct = Array.make max_tags 0;
      store_ct = Array.make max_tags 0;
      evict_ct = Array.make max_tags 0;
      marked = Bytes.make capacity '\000';
      visited = Bytes.make capacity '\000';
      var2level = [||];
      level2var = [||];
      swaps = 0;
      order_gen = 0;
      reorders = 0;
      reorder_millis = 0.0;
      reorder_aborts = 0;
      reorder_hook = None;
      reorder_threshold = 0;
      in_reorder = false;
      level_index = None;
      par = None;
      par_epochs = 0;
      frozen = false;
      frozen_live = 0;
      frozen_sweeps = 0;
      chunk_refills = 0;
      par_domains_used = 0;
    }
  in
  (* Terminals: permanently allocated, never hashed, never swept. *)
  m.lvl.(0) <- terminal_level;
  m.lvl.(1) <- terminal_level;
  m.refc.(0) <- 1;
  m.refc.(1) <- 1;
  (* Thread the rest into the free list. *)
  for i = capacity - 1 downto 2 do
    m.hnext.(i) <- m.free_head;
    m.lvl.(i) <- free_mark;
    m.free_head <- i;
    m.free_count <- m.free_count + 1
  done;
  m

let ensure_order_capacity m n =
  if Array.length m.var2level < n then begin
    let cap = max 16 (max n (2 * Array.length m.var2level)) in
    let grow a =
      let a' = Array.make cap (-1) in
      Array.blit a 0 a' 0 (Array.length a);
      a'
    in
    m.var2level <- grow m.var2level;
    m.level2var <- grow m.level2var
  end

(* -- Per-domain slots ---------------------------------------------------- *)

(* Each domain that touches a parallel-mode manager claims a slot holding
   its private operation cache and allocation chunk.  Slots are found
   through domain-local storage, keyed by (manager uid, parallel epoch) so
   stale entries from an earlier [enter_parallel] window — or from another
   manager — are never confused with live ones. *)

type dls_entry = { e_uid : int; e_epoch : int; e_slot : int }

let dls_key : dls_entry list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let dls_find m (p : par_state) =
  let cell = Domain.DLS.get dls_key in
  let rec find = function
    | [] -> None
    | e :: _ when e.e_uid = m.uid && e.e_epoch = p.p_epoch -> Some e
    | _ :: tl -> find tl
  in
  find !cell

let fresh_slot m =
  let sets = m.set_mask + 1 in
  {
    s_cache = Array.make (sets * m.ways * entry_ints) (-1);
    s_hit = Array.make max_tags 0;
    s_miss = Array.make max_tags 0;
    s_store = Array.make max_tags 0;
    s_evict = Array.make max_tags 0;
    s_chunk = { cnodes = Array.make chunk_cap 0; clen = 0 };
  }

let dls_entry m (p : par_state) =
  match dls_find m p with
  | Some e -> e
  | None ->
    Mutex.lock p.slot_lock;
    if p.nslots >= max_slots then begin
      Mutex.unlock p.slot_lock;
      invalid_arg "Manager: too many concurrent domains (max 64)"
    end;
    let s = p.nslots in
    p.slots.(s) <- Some (fresh_slot m);
    p.nslots <- s + 1;
    if p.nslots > m.par_domains_used then m.par_domains_used <- p.nslots;
    Mutex.unlock p.slot_lock;
    let e = { e_uid = m.uid; e_epoch = p.p_epoch; e_slot = s } in
    let cell = Domain.DLS.get dls_key in
    cell := e :: List.filter (fun o -> o.e_uid <> m.uid) !cell;
    e

let slot_of m (p : par_state) =
  match p.slots.((dls_entry m p).e_slot) with
  | Some s -> s
  | None -> assert false

let new_var m =
  if m.frozen then frozen_error "Manager.new_var";
  let v = m.nvars in
  m.nvars <- v + 1;
  (* The fresh variable enters at the bottom of the current order; since
     existing variables occupy levels [0, v), the new level is [v]. *)
  ensure_order_capacity m m.nvars;
  m.var2level.(v) <- v;
  m.level2var.(v) <- v;
  v

let level_of_var m v =
  if v < 0 || v >= m.nvars then invalid_arg "Manager.level_of_var";
  m.var2level.(v)

let var_at_level m l =
  if l < 0 || l >= m.nvars then invalid_arg "Manager.var_at_level";
  m.level2var.(l)

let uid m = m.uid
let num_vars m = m.nvars
let level m n = m.lvl.(n)
let low m n = m.lo.(n)
let high m n = m.hi.(n)
let is_terminal n = n < 2
let live_nodes m = m.allocated
let peak_nodes m = m.peak
let gc_count m = m.gcs
let gc_millis m = m.gc_millis
let grow_count m = m.grows
let grow_millis m = m.grow_millis

let set_node_limit m limit =
  m.node_limit <- (match limit with Some n when n > 0 -> n | _ -> 0)

let refcount m n = m.refc.(n)
let order_gen m = m.order_gen
let swap_count m = m.swaps
let reorder_count m = m.reorders
let reorder_millis m = m.reorder_millis
let reorder_aborts m = m.reorder_aborts

let record_reorder m ~millis ~aborts =
  m.reorders <- m.reorders + 1;
  m.reorder_millis <- m.reorder_millis +. millis;
  m.reorder_aborts <- m.reorder_aborts + aborts

let set_reorder_hook m hook = m.reorder_hook <- hook
let set_reorder_threshold m n = m.reorder_threshold <- max 0 n
let reorder_threshold m = m.reorder_threshold
let in_reorder m = m.in_reorder

(* Invalidation is a generation bump: O(1) instead of an O(cache) wipe.
   Entries stamped with an older generation fail the lookup check and are
   recycled by the next store to their slot. *)
let clear_caches m = m.cache_gen <- m.cache_gen + 1

let cache_lookup_in m t hit_ct miss_ct tag a b c =
  let set = hash3 (a lxor (tag * 0x85ebca6b)) b c m.set_mask in
  let base = set * m.ways * entry_ints in
  let gen = m.cache_gen in
  let ways = m.ways in
  let rec scan i =
    if i >= ways then begin
      miss_ct.(tag) <- miss_ct.(tag) + 1;
      -1
    end
    else
      let idx = base + (i * entry_ints) in
      if
        t.(idx + 5) = gen
        && t.(idx) = tag
        && t.(idx + 1) = a
        && t.(idx + 2) = b
        && t.(idx + 3) = c
      then begin
        let r = t.(idx + 4) in
        (* promote: swap with the front entry so repeated winners stay
           resident (cheap approximation of LRU) *)
        if i > 0 then begin
          for k = 0 to entry_ints - 1 do
            let tmp = t.(base + k) in
            t.(base + k) <- t.(idx + k);
            t.(idx + k) <- tmp
          done
        end;
        hit_ct.(tag) <- hit_ct.(tag) + 1;
        r
      end
      else scan (i + 1)
  in
  scan 0

let cache_store_in m t store_ct evict_ct tag a b c result =
  let set = hash3 (a lxor (tag * 0x85ebca6b)) b c m.set_mask in
  let base = set * m.ways * entry_ints in
  let last = base + ((m.ways - 1) * entry_ints) in
  (* the last way is the victim; count it if it held a live entry *)
  let victim_tag = t.(last) in
  if t.(last + 5) = m.cache_gen && victim_tag >= 0 && victim_tag < max_tags then
    evict_ct.(victim_tag) <- evict_ct.(victim_tag) + 1;
  if m.ways > 1 then
    Array.blit t base t (base + entry_ints) ((m.ways - 1) * entry_ints);
  t.(base) <- tag;
  t.(base + 1) <- a;
  t.(base + 2) <- b;
  t.(base + 3) <- c;
  t.(base + 4) <- result;
  t.(base + 5) <- m.cache_gen;
  store_ct.(tag) <- store_ct.(tag) + 1

(* In parallel mode every domain memoises through its own cache (found
   via domain-local storage); the shared cache is neither read nor
   written, so it needs no locks and resumes untouched on exit. *)
let cache_lookup m tag a b c =
  match m.par with
  | None -> cache_lookup_in m m.cache m.hit_ct m.miss_ct tag a b c
  | Some p ->
    let sl = slot_of m p in
    cache_lookup_in m sl.s_cache sl.s_hit sl.s_miss tag a b c

let cache_store m tag a b c result =
  match m.par with
  | None -> cache_store_in m m.cache m.store_ct m.evict_ct tag a b c result
  | Some p ->
    let sl = slot_of m p in
    cache_store_in m sl.s_cache sl.s_store sl.s_evict tag a b c result

(* Statistics readers fold the live per-domain counters on top of the
   base ones, so profiler snapshots taken during a parallel phase stay
   monotone; [exit_parallel] merges the slot counters into the base
   arrays for good.  Reads of other domains' counters are racy but each
   cell is a single word, so a reader sees a (possibly slightly stale)
   valid count. *)
let slot_sum m tag pick =
  match m.par with
  | None -> 0
  | Some p ->
    let acc = ref 0 in
    for i = 0 to p.nslots - 1 do
      match p.slots.(i) with
      | Some sl -> acc := !acc + (pick sl).(tag)
      | None -> ()
    done;
    !acc

let cache_stats m =
  let acc = ref [] in
  for tag = !registered_tags - 1 downto 0 do
    acc :=
      {
        tag;
        name = tag_names.(tag);
        hits = m.hit_ct.(tag) + slot_sum m tag (fun s -> s.s_hit);
        misses = m.miss_ct.(tag) + slot_sum m tag (fun s -> s.s_miss);
        stores = m.store_ct.(tag) + slot_sum m tag (fun s -> s.s_store);
        evictions = m.evict_ct.(tag) + slot_sum m tag (fun s -> s.s_evict);
      }
      :: !acc
  done;
  !acc

let cache_totals m =
  let h = ref 0 and mi = ref 0 and e = ref 0 in
  for tag = 0 to !registered_tags - 1 do
    h := !h + m.hit_ct.(tag) + slot_sum m tag (fun s -> s.s_hit);
    mi := !mi + m.miss_ct.(tag) + slot_sum m tag (fun s -> s.s_miss);
    e := !e + m.evict_ct.(tag) + slot_sum m tag (fun s -> s.s_evict)
  done;
  (!h, !mi, !e)

let cache_config m = ((m.set_mask + 1) * m.ways, m.ways)

(* -- Growth ------------------------------------------------------------ *)

let grow_array a capacity fill =
  let a' = Array.make capacity fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let rebuild_buckets m =
  Array.fill m.buckets 0 (Array.length m.buckets) (-1);
  (* Free-list entries are re-threaded too, so rebuild it as we go. *)
  m.free_head <- -1;
  m.free_count <- 0;
  for n = m.capacity - 1 downto 2 do
    if m.lvl.(n) = free_mark then begin
      m.hnext.(n) <- m.free_head;
      m.free_head <- n;
      m.free_count <- m.free_count + 1
    end
    else if m.lvl.(n) <> chunk_mark then begin
      (* nodes parked in a domain's allocation chunk are neither free nor
         allocated: leave them to their owner *)
      let b = hash3 m.lvl.(n) m.lo.(n) m.hi.(n) m.bucket_mask in
      m.hnext.(n) <- m.buckets.(b);
      m.buckets.(b) <- n
    end
  done

(* Growing preserves node handles, so cached results stay valid: the
   operation cache is deliberately left untouched here. *)
let grow m =
  let t0 = Sys.time () in
  let capacity = m.capacity * 2 in
  m.lvl <- grow_array m.lvl capacity free_mark;
  m.lo <- grow_array m.lo capacity 0;
  m.hi <- grow_array m.hi capacity 0;
  m.refc <- grow_array m.refc capacity 0;
  m.hnext <- grow_array m.hnext capacity (-1);
  m.buckets <- Array.make capacity (-1);
  m.bucket_mask <- capacity - 1;
  let marked = Bytes.make capacity '\000' in
  Bytes.blit m.marked 0 marked 0 (Bytes.length m.marked);
  m.marked <- marked;
  let visited = Bytes.make capacity '\000' in
  Bytes.blit m.visited 0 visited 0 (Bytes.length m.visited);
  m.visited <- visited;
  m.capacity <- capacity;
  rebuild_buckets m;
  m.grows <- m.grows + 1;
  m.grow_millis <- m.grow_millis +. ((Sys.time () -. t0) *. 1000.0)

(* Return every chunk-held node to the shared free list.  Runs only at
   quiescence ([frozen_sweep] or [exit_parallel]), when no domain is
   consuming its chunk. *)
let flush_chunks m (p : par_state) =
  Mutex.lock p.alloc_lock;
  for i = 0 to p.nslots - 1 do
    match p.slots.(i) with
    | Some sl ->
      let ch = sl.s_chunk in
      for k = 0 to ch.clen - 1 do
        let n = ch.cnodes.(k) in
        m.lvl.(n) <- free_mark;
        m.hnext.(n) <- m.free_head;
        m.free_head <- n;
        m.free_count <- m.free_count + 1
      done;
      m.allocated <- m.allocated - ch.clen;
      ch.clen <- 0
    | None -> ()
  done;
  Mutex.unlock p.alloc_lock

(* -- Reorder sessions --------------------------------------------------- *)

let build_level_index m =
  let idx = Array.init (max 1 m.nvars) (fun _ -> vec_make ()) in
  for n = 2 to m.capacity - 1 do
    let l = m.lvl.(n) in
    if l <> free_mark && l < terminal_level then vec_push idx.(l) n
  done;
  idx

(* Opening a session materialises the per-level node index [swap_adjacent]
   works from; it stays valid across swaps and table growth (handles are
   stable) and is rebuilt by [gc] (which recycles handles). *)
let reorder_begin m =
  if m.level_index = None then m.level_index <- Some (build_level_index m)

let reorder_end m = m.level_index <- None

(* -- Garbage collection ------------------------------------------------ *)

let mark_from m root =
  if root >= 2 && Bytes.get m.marked root = '\000' then begin
    let stack = ref [ root ] in
    while !stack <> [] do
      match !stack with
      | [] -> ()
      | n :: rest ->
        stack := rest;
        if n >= 2 && Bytes.get m.marked n = '\000' then begin
          Bytes.set m.marked n '\001';
          stack := m.lo.(n) :: m.hi.(n) :: !stack
        end
    done
  end

let gc_raw m =
  let t0 = Sys.time () in
  m.gcs <- m.gcs + 1;
  (* Collection frees (and later recycles) node handles, so every cached
     result is suspect: retire the whole generation. *)
  clear_caches m;
  Bytes.fill m.marked 0 (Bytes.length m.marked) '\000';
  for n = 2 to m.capacity - 1 do
    if m.lvl.(n) <> free_mark && m.refc.(n) > 0 then mark_from m n
  done;
  (* Sweep: unmarked allocated nodes become free. *)
  m.allocated <- 2;
  for n = 2 to m.capacity - 1 do
    if m.lvl.(n) <> free_mark then
      if Bytes.get m.marked n = '\000' then m.lvl.(n) <- free_mark
      else m.allocated <- m.allocated + 1
  done;
  rebuild_buckets m;
  (* Collection recycles handles, so an open reorder session's per-level
     index must be rebuilt from the survivors. *)
  if m.level_index <> None then m.level_index <- Some (build_level_index m);
  m.gc_millis <- m.gc_millis +. ((Sys.time () -. t0) *. 1000.0)

(* Frozen roots are pinned without refcounts, so a frozen manager
   reclaims only through [frozen_sweep], at quiescence.  Parallel mode
   is frozen-only, so a collection never meets allocation chunks. *)
let gc m = if not m.frozen then gc_raw m

let checkpoint m =
  (* Frozen: the query path crosses safe points without GC, reorder
     triggers or cache-generation bumps; scratch nodes accumulate until
     [frozen_sweep]. *)
  if not m.frozen then begin
    (* Auto-reorder trigger: safe points are the only places a reorder
       may run (no recursive operation is in flight), so the hook fires
       here when the live-node population has crossed the configured
       threshold since the last reorder.  [in_reorder] guards against
       reentry from the checkpoints the reorder engine itself performs. *)
    (match m.reorder_hook with
    | Some hook
      when m.reorder_threshold > 0
           && (not m.in_reorder)
           && m.allocated >= m.reorder_threshold ->
      m.in_reorder <- true;
      Fun.protect ~finally:(fun () -> m.in_reorder <- false) hook
    | _ -> ());
    if m.free_count * 4 < m.capacity then begin
      gc m;
      (* If collection freed too little, enlarge so the mutator does not
         immediately bump into the wall again — unless a node budget
         says the next doubling is off-limits; then run on what
         collection recovered and let [alloc] raise if the wall is
         real. *)
      if
        m.free_count * 4 < m.capacity
        && not (m.node_limit > 0 && m.capacity * 2 > m.node_limit)
      then grow m
    end
  end

(* -- Node creation ------------------------------------------------------ *)

(* Growth against the node budget.  When the free list is empty and
   doubling would overshoot the limit, reclaim whatever garbage is left
   and abandon the current operation: a collection here recycles node
   handles, so in-flight unreferenced intermediates must not be resumed.
   The manager itself stays consistent (caches were retired by [gc]) —
   the handler can release roots and retry. *)
let grow_limited m =
  if m.node_limit > 0 && m.capacity * 2 > m.node_limit then begin
    gc m;
    raise Out_of_nodes
  end
  else grow m

let alloc m =
  if m.free_head < 0 then grow_limited m;
  let n = m.free_head in
  m.free_head <- m.hnext.(n);
  m.free_count <- m.free_count - 1;
  m.allocated <- m.allocated + 1;
  if m.allocated > m.peak then m.peak <- m.allocated;
  n

let mk_seq m lvl lo hi =
  let b = hash3 lvl lo hi m.bucket_mask in
  let rec find n =
    if n < 0 then begin
      let n = alloc m in
      m.lvl.(n) <- lvl;
      m.lo.(n) <- lo;
      m.hi.(n) <- hi;
      m.refc.(n) <- 0;
      (* Recompute the bucket: [alloc] may have grown the table. *)
      let b = hash3 lvl lo hi m.bucket_mask in
      m.hnext.(n) <- m.buckets.(b);
      m.buckets.(b) <- n;
      n
    end
    else if m.lvl.(n) = lvl && m.lo.(n) = lo && m.hi.(n) = hi then n
    else find m.hnext.(n)
  in
  find m.buckets.(b)

(* Parallel-mode table growth: the caller already holds [alloc_lock];
   acquire every stripe so no [mk] is inside a bucket while the arrays
   are replaced.  The stale old arrays remain valid for all nodes that
   existed when a concurrent reader fetched them, so a racy read through
   a captured reference still sees correct fields. *)
let grow_all_stripes m (p : par_state) =
  if m.node_limit > 0 && m.capacity * 2 > m.node_limit then raise Out_of_nodes;
  for i = 0 to nstripes - 1 do
    Mutex.lock p.stripe_locks.(i)
  done;
  grow m;
  for i = nstripes - 1 downto 0 do
    Mutex.unlock p.stripe_locks.(i)
  done

(* Refill a domain's allocation chunk from the shared free list.  A
   frozen manager never collects, so when the budget wall is real we
   raise [Out_of_nodes] directly; scratch is reclaimed by the next
   [frozen_sweep]. *)
let chunk_refill m (p : par_state) (sl : slot_state) =
  Mutex.lock p.alloc_lock;
  let ch = sl.s_chunk in
  let oom = ref false in
  (try
     while ch.clen < chunk_cap do
       if m.free_head < 0 then grow_all_stripes m p;
       let n = m.free_head in
       m.free_head <- m.hnext.(n);
       m.free_count <- m.free_count - 1;
       m.lvl.(n) <- chunk_mark;
       ch.cnodes.(ch.clen) <- n;
       ch.clen <- ch.clen + 1;
       m.allocated <- m.allocated + 1
     done
   with Out_of_nodes -> oom := true (* a partial refill still makes progress *));
  if m.allocated > m.peak then m.peak <- m.allocated;
  m.chunk_refills <- m.chunk_refills + 1;
  let exhausted = !oom && ch.clen = 0 in
  Mutex.unlock p.alloc_lock;
  if exhausted then raise Out_of_nodes

let rec mk_par m (p : par_state) (sl : slot_state) lvl lo hi =
  (* Reserve a node BEFORE taking the stripe lock: the bucket critical
     section must never wait on [alloc_lock] (lock-order discipline:
     alloc_lock > stripe locks, never the reverse). *)
  if sl.s_chunk.clen = 0 then chunk_refill m p sl;
  let mask0 = m.bucket_mask in
  let b = hash3 lvl lo hi mask0 in
  let lk = p.stripe_locks.(b land stripe_mask) in
  Mutex.lock lk;
  if m.bucket_mask <> mask0 then begin
    (* the table grew between hashing and locking; rehash *)
    Mutex.unlock lk;
    mk_par m p sl lvl lo hi
  end
  else begin
    let rec find n =
      if n < 0 then begin
        let ch = sl.s_chunk in
        ch.clen <- ch.clen - 1;
        let n = ch.cnodes.(ch.clen) in
        m.lvl.(n) <- lvl;
        m.lo.(n) <- lo;
        m.hi.(n) <- hi;
        m.refc.(n) <- 0;
        m.hnext.(n) <- m.buckets.(b);
        m.buckets.(b) <- n;
        n
      end
      else if m.lvl.(n) = lvl && m.lo.(n) = lo && m.hi.(n) = hi then n
      else find m.hnext.(n)
    in
    let r = find m.buckets.(b) in
    Mutex.unlock lk;
    r
  end

let mk m lvl lo hi =
  if lo = hi then lo
  else begin
    assert (lvl >= 0 && lvl < m.lvl.(lo) && lvl < m.lvl.(hi));
    match m.par with
    | None -> mk_seq m lvl lo hi
    | Some p -> mk_par m p (slot_of m p) lvl lo hi
  end

let var m lvl = mk m lvl zero one
let nvar m lvl = mk m lvl one zero

(* -- Adjacent level exchange -------------------------------------------- *)

let unlink m n =
  let b = hash3 m.lvl.(n) m.lo.(n) m.hi.(n) m.bucket_mask in
  if m.buckets.(b) = n then m.buckets.(b) <- m.hnext.(n)
  else begin
    let rec go p =
      if m.hnext.(p) = n then m.hnext.(p) <- m.hnext.(n)
      else go m.hnext.(p)
    in
    go m.buckets.(b)
  end

let relink m n =
  let b = hash3 m.lvl.(n) m.lo.(n) m.hi.(n) m.bucket_mask in
  m.hnext.(n) <- m.buckets.(b);
  m.buckets.(b) <- n

(* [swap_adjacent m l] exchanges levels [l] and [l+1] of the order, in
   place over the unique table.  Every existing handle keeps the boolean
   function it denoted before the swap (over variable ids), so external
   references, refcounts and inter-manager memo tables stay valid; only
   level-dependent structural memos die, which the [order_gen] bump and
   cache invalidation take care of.

   Nodes at level [l] that do not depend on level [l+1], and all nodes at
   level [l+1], merely trade levels.  A level-[l] node with a child at
   level [l+1] is rewritten in place from its four grandcofactors; the
   two new children are made by [mk] at level [l+1].  Canonicity
   guarantees the rewritten node cannot collide with any relabeled node
   (a collision would equate two functions that were distinct before the
   swap). *)
let swap_adjacent m l =
  if m.frozen then frozen_error "Manager.swap_adjacent";
  if l < 0 || l + 1 >= m.nvars then invalid_arg "Manager.swap_adjacent";
  let standalone = m.level_index = None in
  if standalone then reorder_begin m;
  let idx = match m.level_index with Some i -> i | None -> assert false in
  let upper = idx.(l) and lower = idx.(l + 1) in
  (* Pre-grow so [mk] cannot trigger a mid-surgery table growth: each
     rewritten node allocates at most two children. *)
  while m.free_count < (2 * upper.len) + 64 do
    grow m
  done;
  (* Partition the upper rank before any relabeling. *)
  let deps = vec_make () and indeps = vec_make () in
  for i = 0 to upper.len - 1 do
    let n = upper.data.(i) in
    if m.lvl.(m.lo.(n)) = l + 1 || m.lvl.(m.hi.(n)) = l + 1 then
      vec_push deps n
    else vec_push indeps n
  done;
  (* Unlink both ranks while their stored keys still match. *)
  for i = 0 to upper.len - 1 do
    unlink m upper.data.(i)
  done;
  for i = 0 to lower.len - 1 do
    unlink m lower.data.(i)
  done;
  (* Independent upper nodes and the whole lower rank just trade levels:
     under the swapped variable<->level maps they denote the same
     functions. *)
  for i = 0 to indeps.len - 1 do
    let n = indeps.data.(i) in
    m.lvl.(n) <- l + 1;
    relink m n
  done;
  for i = 0 to lower.len - 1 do
    let n = lower.data.(i) in
    m.lvl.(n) <- l;
    relink m n
  done;
  (* Rewrite each dependent node in place from its grandcofactors, so the
     handle keeps denoting the same function with the variables read in
     the new order.  Old lower-rank children now sit at level [l]; true
     children of the node can never be at [l] otherwise. *)
  for i = 0 to deps.len - 1 do
    let n = deps.data.(i) in
    let g = m.lo.(n) and h = m.hi.(n) in
    let g0, g1 =
      if (not (is_terminal g)) && m.lvl.(g) = l then (m.lo.(g), m.hi.(g))
      else (g, g)
    in
    let h0, h1 =
      if (not (is_terminal h)) && m.lvl.(h) = l then (m.lo.(h), m.hi.(h))
      else (h, h)
    in
    let c0 = mk m (l + 1) g0 h0 in
    let c1 = mk m (l + 1) g1 h1 in
    m.lo.(n) <- c0;
    m.hi.(n) <- c1;
    relink m n
  done;
  (* Rebuild the two touched ranks of the index: level [l] now holds the
     rewritten dependents plus the relabeled old lower rank; level [l+1]
     holds the relabeled independents plus whatever [mk] returned or
     created there (deduplicated through the scratch visited set). *)
  let new_upper = vec_make () in
  for i = 0 to deps.len - 1 do
    vec_push new_upper deps.data.(i)
  done;
  for i = 0 to lower.len - 1 do
    vec_push new_upper lower.data.(i)
  done;
  let new_lower = vec_make () in
  let add c =
    if
      (not (is_terminal c))
      && m.lvl.(c) = l + 1
      && Bytes.get m.visited c = '\000'
    then begin
      Bytes.set m.visited c '\001';
      vec_push new_lower c
    end
  in
  for i = 0 to indeps.len - 1 do
    add indeps.data.(i)
  done;
  for i = 0 to deps.len - 1 do
    add m.lo.(deps.data.(i));
    add m.hi.(deps.data.(i))
  done;
  for i = 0 to new_lower.len - 1 do
    Bytes.set m.visited new_lower.data.(i) '\000'
  done;
  idx.(l) <- new_upper;
  idx.(l + 1) <- new_lower;
  (* Swap the variable<->level maps and retire order-dependent memos. *)
  let va = m.level2var.(l) and vb = m.level2var.(l + 1) in
  m.level2var.(l) <- vb;
  m.level2var.(l + 1) <- va;
  m.var2level.(va) <- l + 1;
  m.var2level.(vb) <- l;
  m.swaps <- m.swaps + 1;
  m.order_gen <- m.order_gen + 1;
  clear_caches m;
  if standalone then reorder_end m

(* -- Invariant checker --------------------------------------------------- *)

(* Structural audit of the node store, the unique table, the free list
   and the variable-order maps; run by the test suite and the bench smoke
   gate after reordering.  Returns human-readable violations, empty when
   the manager is consistent. *)
let check_invariants m =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  for v = 0 to m.nvars - 1 do
    let l = m.var2level.(v) in
    if l < 0 || l >= m.nvars then err "var %d has out-of-range level %d" v l
    else if m.level2var.(l) <> v then
      err "var2level/level2var disagree at var %d (level %d maps back to %d)"
        v l m.level2var.(l)
  done;
  let free_seen = ref 0 in
  let n = ref m.free_head in
  while !n >= 0 do
    if m.lvl.(!n) <> free_mark then err "free-list node %d is not free" !n;
    incr free_seen;
    n := m.hnext.(!n)
  done;
  if !free_seen <> m.free_count then
    err "free_count %d but the free list threads %d entries" m.free_count
      !free_seen;
  let alloc_seen = ref 2 in
  let chunk_seen = ref 0 in
  for n = 2 to m.capacity - 1 do
    if m.lvl.(n) = chunk_mark then begin
      (* granted to a domain's allocation chunk: counted as allocated,
         but carries no node fields yet *)
      incr alloc_seen;
      incr chunk_seen
    end
    else if m.lvl.(n) <> free_mark then begin
      incr alloc_seen;
      let l = m.lvl.(n) and lo = m.lo.(n) and hi = m.hi.(n) in
      if l < 0 || l >= m.nvars then err "node %d has invalid level %d" n l
      else begin
        if lo = hi then err "node %d is redundant (lo = hi = %d)" n lo;
        if m.lvl.(lo) = free_mark || m.lvl.(hi) = free_mark then
          err "node %d has a freed child" n
        else if l >= m.lvl.(lo) || l >= m.lvl.(hi) then
          err "node %d at level %d violates the order invariant" n l;
        let b = hash3 l lo hi m.bucket_mask in
        let count = ref 0 in
        let c = ref m.buckets.(b) in
        while !c >= 0 do
          if m.lvl.(!c) = l && m.lo.(!c) = lo && m.hi.(!c) = hi then
            incr count;
          c := m.hnext.(!c)
        done;
        if !count = 0 then
          err "node %d missing from its unique-table bucket" n;
        if !count > 1 then
          err "node (%d, %d, %d) duplicated in the unique table" l lo hi
      end
    end
  done;
  if !alloc_seen <> m.allocated then
    err "allocated count %d but %d nodes live in the arrays" m.allocated
      !alloc_seen;
  (* Sharded-table / chunk accounting.  Only meaningful at quiescence
     (no domain mid-[mk]); the test suite calls this between parallel
     phases. *)
  (match m.par with
  | None ->
    if !chunk_seen > 0 then
      err "%d chunk-held nodes outside parallel mode" !chunk_seen
  | Some p ->
    let in_chunks = ref 0 in
    for i = 0 to p.nslots - 1 do
      match p.slots.(i) with
      | Some sl -> in_chunks := !in_chunks + sl.s_chunk.clen
      | None -> ()
    done;
    if !in_chunks <> !chunk_seen then
      err "domain chunks hold %d nodes but %d are marked chunk-held"
        !in_chunks !chunk_seen);
  List.rev !errs

(* Ref-count-free query path: on a frozen manager, roots pinned before
   the freeze keep their counts and relations created by queries are
   scratch, reclaimed wholesale by [frozen_sweep].  Parallel mode is
   frozen-only, so the counts are never touched from two domains. *)
let addref m n =
  if m.frozen then n
  else begin
    m.refc.(n) <- m.refc.(n) + 1;
    n
  end

let delref m n =
  if not m.frozen then begin
    assert (m.refc.(n) > 0);
    m.refc.(n) <- m.refc.(n) - 1
  end

let iter_live m f =
  for n = 2 to m.capacity - 1 do
    if m.lvl.(n) <> free_mark then f n
  done

let visited_clear m = Bytes.fill m.visited 0 (Bytes.length m.visited) '\000'
let visited_mem m n = Bytes.get m.visited n <> '\000'
let visited_add m n = Bytes.set m.visited n '\001'

(* -- Parallel-mode lifecycle -------------------------------------------- *)

(* [enter_parallel] flips [mk] and the operation cache onto their
   locked/per-domain variants; [exit_parallel] returns chunk-held nodes,
   folds per-domain cache statistics into the base counters and restores
   the plain sequential paths.  Calls nest; both must run on a single
   domain at a moment the caller guarantees quiescent (no other domain
   touching the manager): the serve pool flips the mode, spawns its
   workers, and flips back after joining them.  Only a frozen manager
   may enter: everything that would need coordinating across domains
   (refcounts, GC, reordering, new variables) is already off there. *)

let enter_parallel m =
  if not m.frozen then
    invalid_arg "Manager.enter_parallel: the manager is not frozen";
  match m.par with
  | Some p -> p.depth <- p.depth + 1
  | None ->
    m.par_epochs <- m.par_epochs + 1;
    m.par <-
      Some
        {
          p_epoch = m.par_epochs;
          stripe_locks = Array.init nstripes (fun _ -> Mutex.create ());
          alloc_lock = Mutex.create ();
          slot_lock = Mutex.create ();
          slots = Array.make max_slots None;
          nslots = 0;
          depth = 1;
        }

let exit_parallel m =
  match m.par with
  | None -> ()
  | Some p ->
    p.depth <- p.depth - 1;
    if p.depth = 0 then begin
      flush_chunks m p;
      (* fold the per-domain cache statistics into the base counters so
         the profiler's monotone snapshots survive the mode switch *)
      for i = 0 to p.nslots - 1 do
        match p.slots.(i) with
        | Some sl ->
          for tag = 0 to max_tags - 1 do
            m.hit_ct.(tag) <- m.hit_ct.(tag) + sl.s_hit.(tag);
            m.miss_ct.(tag) <- m.miss_ct.(tag) + sl.s_miss.(tag);
            m.store_ct.(tag) <- m.store_ct.(tag) + sl.s_store.(tag);
            m.evict_ct.(tag) <- m.evict_ct.(tag) + sl.s_evict.(tag)
          done
        | None -> ()
      done;
      m.par <- None
    end

(* -- Frozen mode --------------------------------------------------------- *)

(* [freeze] turns the manager into a read-only arena for serving: a
   final mark/sweep compacts the live node set (everything unreachable
   from a referenced root is dropped), then refcount traffic, GC,
   auto-reordering, level swaps and variable allocation are all switched
   off.  Queries may still build scratch nodes (select cubes,
   quantification results); those accumulate — ref-count-free — until a
   coordinator with the pool quiesced calls [frozen_sweep], which marks
   from the pinned pre-freeze roots and reclaims everything else.
   Freezing is one-way: a served universe never becomes mutable again. *)

let freeze m =
  if not m.frozen then begin
    gc_raw m;
    m.frozen <- true;
    m.frozen_live <- m.allocated
  end

let frozen m = m.frozen
let frozen_live_nodes m = m.frozen_live
let frozen_sweep_count m = m.frozen_sweeps

(* Reclaim query scratch: every node unreachable from a pinned
   (pre-freeze, refc > 0) root dies.  The caller must guarantee
   quiescence — no query evaluating on any domain — which the serve
   pool does by parking its workers first. *)
let frozen_sweep m =
  if not m.frozen then invalid_arg "Manager.frozen_sweep: manager not frozen";
  (match m.par with Some p -> flush_chunks m p | None -> ());
  gc_raw m;
  m.frozen_sweeps <- m.frozen_sweeps + 1

type par_stats = {
  par_active : bool;
  par_domains : int; (* distinct domains that claimed a slot, peak *)
  par_chunk_refills : int;
}

let par_stats m =
  {
    par_active = m.par <> None;
    par_domains = m.par_domains_used;
    par_chunk_refills = m.chunk_refills;
  }

(* Per-domain cache counters of the live parallel window: (slot, hits,
   misses, stores, evictions) summed over tags.  Empty outside parallel
   mode. *)
let slot_cache_stats m =
  match m.par with
  | None -> [||]
  | Some p ->
    Array.init p.nslots (fun i ->
        match p.slots.(i) with
        | None -> (i, 0, 0, 0, 0)
        | Some sl ->
          let sum a = Array.fold_left ( + ) 0 a in
          (i, sum sl.s_hit, sum sl.s_miss, sum sl.s_store, sum sl.s_evict))
