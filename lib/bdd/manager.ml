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
  node_limit : int; (* capacity ceiling; 0 = unlimited *)
  (* N-way set-associative operation cache.  Each entry is
     [entry_ints] consecutive ints: tag, a, b, c, result, generation.
     A set is [ways] consecutive entries; lookups scan the set and
     promote hits toward the front, stores insert at the front and
     push the rest down (evicting the last way). *)
  cache : int array;
  mutable cache_gen : int;
  hit_ct : int array; (* per tag *)
  miss_ct : int array;
  store_ct : int array;
  evict_ct : int array;
  mutable marked : Bytes.t;
  (* Frozen (read-only arena) mode: refcounts, GC and variable
     allocation are all disabled; see [freeze]. *)
  mutable frozen : bool;
  mutable frozen_live : int; (* allocated nodes right after [freeze] *)
  mutable frozen_sweeps : int;
}

let free_mark = -1
let entry_ints = 6

(* Operation-cache geometry: 2^14 entries in sets of 4 ways. *)
let ways = 4
let set_mask = ((1 lsl 14) / ways) - 1

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

let min_node_capacity = 1024

let create ?(node_capacity = 1 lsl 15) ?(node_limit = 0) () =
  incr next_uid;
  let uid = !next_uid in
  let rec pow2_below n acc = if acc * 2 > n then acc else pow2_below n (acc * 2) in
  let capacity = max min_node_capacity node_capacity in
  (* A node budget is a true ceiling: the initial table must fit under it
     too (rounded down to a power of two for mask indexing). *)
  let capacity =
    if node_limit > 0 && capacity > node_limit then
      pow2_below (max min_node_capacity node_limit) min_node_capacity
    else capacity
  in
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
      cache = Array.make ((set_mask + 1) * ways * entry_ints) (-1);
      cache_gen = 1; (* entries start at gen 0: all invalid *)
      hit_ct = Array.make max_tags 0;
      miss_ct = Array.make max_tags 0;
      store_ct = Array.make max_tags 0;
      evict_ct = Array.make max_tags 0;
      marked = Bytes.make capacity '\000';
      frozen = false;
      frozen_live = 0;
      frozen_sweeps = 0;
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

(* Variables are numbered in allocation order, and that number is the
   variable's level: the order is fixed once the blocks are declared. *)
let new_var m =
  if m.frozen then frozen_error "Manager.new_var";
  let v = m.nvars in
  m.nvars <- v + 1;
  v

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
let refcount m n = m.refc.(n)

(* Invalidation is a generation bump: O(1) instead of an O(cache) wipe.
   Entries stamped with an older generation fail the lookup check and are
   recycled by the next store to their slot. *)
let clear_caches m = m.cache_gen <- m.cache_gen + 1

let cache_lookup m tag a b c =
  let t = m.cache in
  let set = hash3 (a lxor (tag * 0x85ebca6b)) b c set_mask in
  let base = set * ways * entry_ints in
  let gen = m.cache_gen in
  let rec scan i =
    if i >= ways then begin
      m.miss_ct.(tag) <- m.miss_ct.(tag) + 1;
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
        m.hit_ct.(tag) <- m.hit_ct.(tag) + 1;
        r
      end
      else scan (i + 1)
  in
  scan 0

let cache_store m tag a b c result =
  let t = m.cache in
  let set = hash3 (a lxor (tag * 0x85ebca6b)) b c set_mask in
  let base = set * ways * entry_ints in
  let last = base + ((ways - 1) * entry_ints) in
  (* the last way is the victim; count it if it held a live entry *)
  let victim_tag = t.(last) in
  if t.(last + 5) = m.cache_gen && victim_tag >= 0 && victim_tag < max_tags then
    m.evict_ct.(victim_tag) <- m.evict_ct.(victim_tag) + 1;
  Array.blit t base t (base + entry_ints) ((ways - 1) * entry_ints);
  t.(base) <- tag;
  t.(base + 1) <- a;
  t.(base + 2) <- b;
  t.(base + 3) <- c;
  t.(base + 4) <- result;
  t.(base + 5) <- m.cache_gen;
  m.store_ct.(tag) <- m.store_ct.(tag) + 1

let cache_stats m =
  let acc = ref [] in
  for tag = !registered_tags - 1 downto 0 do
    acc :=
      {
        tag;
        name = tag_names.(tag);
        hits = m.hit_ct.(tag);
        misses = m.miss_ct.(tag);
        stores = m.store_ct.(tag);
        evictions = m.evict_ct.(tag);
      }
      :: !acc
  done;
  !acc

let cache_totals m =
  let h = ref 0 and mi = ref 0 and e = ref 0 in
  for tag = 0 to !registered_tags - 1 do
    h := !h + m.hit_ct.(tag);
    mi := !mi + m.miss_ct.(tag);
    e := !e + m.evict_ct.(tag)
  done;
  (!h, !mi, !e)

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
    else begin
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
  m.capacity <- capacity;
  rebuild_buckets m;
  m.grows <- m.grows + 1;
  m.grow_millis <- m.grow_millis +. ((Sys.time () -. t0) *. 1000.0)

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
  m.gc_millis <- m.gc_millis +. ((Sys.time () -. t0) *. 1000.0)

(* Frozen roots are pinned without refcounts, so a frozen manager
   reclaims only through [frozen_sweep], between queries. *)
let gc m = if not m.frozen then gc_raw m

let checkpoint m =
  (* Frozen: the query path crosses safe points without GC or
     cache-generation bumps; scratch nodes accumulate until
     [frozen_sweep]. *)
  if (not m.frozen) && m.free_count * 4 < m.capacity then begin
    gc m;
    (* If collection freed too little, enlarge so the mutator does not
       immediately bump into the wall again — unless a node budget says
       the next doubling is off-limits; then run on what collection
       recovered and let [alloc] raise if the wall is real. *)
    if
      m.free_count * 4 < m.capacity
      && not (m.node_limit > 0 && m.capacity * 2 > m.node_limit)
    then grow m
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

let mk m lvl lo hi =
  if lo = hi then lo
  else begin
    assert (lvl >= 0 && lvl < m.lvl.(lo) && lvl < m.lvl.(hi));
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
  end

let var m lvl = mk m lvl zero one
let nvar m lvl = mk m lvl one zero

(* -- Invariant checker --------------------------------------------------- *)

(* Structural audit of the node store, the unique table and the free
   list; run by the test suite.  Returns human-readable violations,
   empty when the manager is consistent. *)
let check_invariants m =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
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
  for n = 2 to m.capacity - 1 do
    if m.lvl.(n) <> free_mark then begin
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
  List.rev !errs

(* Ref-count-free query path: on a frozen manager, roots pinned before
   the freeze keep their counts and relations created by queries are
   scratch, reclaimed wholesale by [frozen_sweep]. *)
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

(* -- Frozen mode --------------------------------------------------------- *)

(* [freeze] turns the manager into a read-only arena for serving: a
   final mark/sweep compacts the live node set (everything unreachable
   from a referenced root is dropped), then refcount traffic, GC and
   variable allocation are all switched off.  Queries may still build
   scratch nodes (select cubes, quantification results); those
   accumulate — ref-count-free — until the serving worker calls
   [frozen_sweep] between two queries, which marks from the pinned
   pre-freeze roots and reclaims everything else.
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
   (pre-freeze, refc > 0) root dies.  The caller must guarantee that no
   query is evaluating; the serve pool's one worker sweeps between
   jobs. *)
let frozen_sweep m =
  if not m.frozen then invalid_arg "Manager.frozen_sweep: manager not frozen";
  gc_raw m;
  m.frozen_sweeps <- m.frozen_sweeps + 1
