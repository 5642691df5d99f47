(* Hash-consed MTBDD store: integer-terminal decision diagrams with the
   same unique-table / refcount / checkpoint-GC discipline as the
   boolean manager in lib/bdd.  Terminals are encoded as nodes whose
   level is [Manager.terminal_level], with the value in the [lo] field
   and -1 in [hi]; handle 0 is the pinned terminal 0. *)

module M = Jedd_bdd.Manager

type node = int

let value_cap = 1_000_000_000

let tlvl = M.terminal_level

(* Saturating non-negative terminal arithmetic. *)
let sat_add a b = if a > value_cap - b then value_cap else a + b

let sat_mul a b =
  if a = 0 || b = 0 then 0
  else if a > value_cap / b then value_cap
  else a * b

let pow2_sat k = if k >= 30 then value_cap else 1 lsl k

type binop = Add | Min | Max | Mul | Diff
type agg = Sum | Max_agg

(* Operation-cache tags; the order fixes the cache_stats listing. *)
let tag_names =
  [| "mt-apply-add"; "mt-apply-min"; "mt-apply-max"; "mt-apply-mul";
     "mt-apply-diff"; "mt-exist-sum"; "mt-exist-max"; "mt-replace";
     "mt-relprod"; "mt-threshold" |]

let n_tags = Array.length tag_names
let tag_apply_add = 0
let tag_apply_min = 1
let tag_apply_max = 2
let tag_apply_mul = 3
let tag_apply_diff = 4
let tag_exist_sum = 5
let tag_exist_max = 6
let tag_replace = 7
let tag_relprod = 8
let tag_threshold = 9

let tag_of_op = function
  | Add -> tag_apply_add
  | Min -> tag_apply_min
  | Max -> tag_apply_max
  | Mul -> tag_apply_mul
  | Diff -> tag_apply_diff

type cache_stat = {
  name : string;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
}

(* Cache slot layout, stride 6: tag, a, b, c, result, generation; the
   cache holds [cache_sets] sets of [cache_ways] slots. *)
let ck_stride = 6
let cache_sets = 1 lsl 12
let cache_ways = 4

type t = {
  mutable lvl : int array; (* -1 = free slot *)
  mutable lo : int array; (* terminal: value *)
  mutable hi : int array; (* terminal: -1 *)
  mutable refc : int array;
  mutable hnext : int array; (* bucket chain / free-list chain *)
  mutable buckets : int array;
  mutable capacity : int; (* power of two *)
  mutable free_head : int;
  mutable free_count : int;
  mutable peak : int;
  mutable gcs : int;
  mutable n_terminals : int;
  (* op cache *)
  cache : int array;
  mutable cache_gen : int;
  mutable tick : int;
  c_hits : int array;
  c_misses : int array;
  c_stores : int array;
  c_evict : int array;
  (* interned quantification sets and replace permutations *)
  set_ids : (int list, int) Hashtbl.t;
  mutable set_arr : int array array;
  mutable n_set : int;
  perm_ids : (int list, int) Hashtbl.t;
  mutable perm_arr : (int, int) Hashtbl.t array;
  mutable n_perm : int;
}

let fused_count = ref 0
let fallback_count = ref 0
let fused_stats () = (!fused_count, !fallback_count)

let hash3 a b c =
  let h = (a * 0x9e3779b1) lxor (b * 0x85ebca77) lxor (c * 0xc2b2ae3d) in
  (h lxor (h lsr 17)) land max_int

let create () =
  let capacity = 1 lsl 14 in
  let s =
    {
      lvl = Array.make capacity (-1);
      lo = Array.make capacity 0;
      hi = Array.make capacity 0;
      refc = Array.make capacity 0;
      hnext = Array.make capacity (-1);
      buckets = Array.make capacity (-1);
      capacity;
      free_head = -1;
      free_count = 0;
      peak = 0;
      gcs = 0;
      n_terminals = 0;
      cache = Array.make (cache_sets * cache_ways * ck_stride) (-1);
      cache_gen = 0;
      tick = 0;
      c_hits = Array.make n_tags 0;
      c_misses = Array.make n_tags 0;
      c_stores = Array.make n_tags 0;
      c_evict = Array.make n_tags 0;
      set_ids = Hashtbl.create 16;
      set_arr = Array.make 8 [||];
      n_set = 0;
      perm_ids = Hashtbl.create 16;
      perm_arr = Array.make 8 (Hashtbl.create 1);
      n_perm = 0;
    }
  in
  (* chain all slots but 0 into the free list, highest first *)
  for i = capacity - 1 downto 1 do
    s.hnext.(i) <- s.free_head;
    s.free_head <- i;
    s.free_count <- s.free_count + 1
  done;
  (* pin the terminal 0 at handle 0 *)
  s.lvl.(0) <- tlvl;
  s.lo.(0) <- 0;
  s.hi.(0) <- -1;
  s.refc.(0) <- 1_000_000_000;
  let h = hash3 tlvl 0 (-1) land (capacity - 1) in
  s.hnext.(0) <- s.buckets.(h);
  s.buckets.(h) <- 0;
  s.n_terminals <- 1;
  s.peak <- 1;
  s

let level s n = s.lvl.(n)
let low s n = s.lo.(n)
let high s n = s.hi.(n)
let is_terminal s n = s.lvl.(n) = tlvl

let terminal_value s n =
  if s.lvl.(n) <> tlvl then invalid_arg "Mtbdd.terminal_value: internal node";
  s.lo.(n)

let zero _s = 0
let live_nodes s = s.capacity - s.free_count
let peak_nodes s = s.peak
let gc_count s = s.gcs
let distinct_terminals s = s.n_terminals

let addref s n = s.refc.(n) <- s.refc.(n) + 1
let delref s n = if s.refc.(n) > 0 then s.refc.(n) <- s.refc.(n) - 1

(* --- allocation, growth, GC ------------------------------------------- *)

let rehash s =
  Array.fill s.buckets 0 (Array.length s.buckets) (-1);
  let mask = s.capacity - 1 in
  for n = 0 to s.capacity - 1 do
    if s.lvl.(n) >= 0 then begin
      let h = hash3 s.lvl.(n) s.lo.(n) s.hi.(n) land mask in
      s.hnext.(n) <- s.buckets.(h);
      s.buckets.(h) <- n
    end
  done

let grow s =
  let old = s.capacity in
  let cap = old * 2 in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 old;
    b
  in
  s.lvl <- extend s.lvl (-1);
  s.lo <- extend s.lo 0;
  s.hi <- extend s.hi 0;
  s.refc <- extend s.refc 0;
  s.hnext <- extend s.hnext (-1);
  s.buckets <- Array.make cap (-1);
  s.capacity <- cap;
  for i = cap - 1 downto old do
    s.hnext.(i) <- s.free_head;
    s.free_head <- i;
    s.free_count <- s.free_count + 1
  done;
  rehash s

let alloc s l lo_ hi_ =
  if s.free_head < 0 then grow s;
  let n = s.free_head in
  s.free_head <- s.hnext.(n);
  s.free_count <- s.free_count - 1;
  s.lvl.(n) <- l;
  s.lo.(n) <- lo_;
  s.hi.(n) <- hi_;
  s.refc.(n) <- 0;
  let h = hash3 l lo_ hi_ land (s.capacity - 1) in
  s.hnext.(n) <- s.buckets.(h);
  s.buckets.(h) <- n;
  if l = tlvl then s.n_terminals <- s.n_terminals + 1;
  let live = s.capacity - s.free_count in
  if live > s.peak then s.peak <- live;
  n

let lookup s l lo_ hi_ =
  let h = hash3 l lo_ hi_ land (s.capacity - 1) in
  let rec walk n =
    if n < 0 then -1
    else if s.lvl.(n) = l && s.lo.(n) = lo_ && s.hi.(n) = hi_ then n
    else walk s.hnext.(n)
  in
  walk s.buckets.(h)

let terminal s v =
  if v < 0 then invalid_arg "Mtbdd.terminal: negative value";
  let v = Int.min v value_cap in
  let n = lookup s tlvl v (-1) in
  if n >= 0 then n else alloc s tlvl v (-1)

let one s = terminal s 1

let mk s l lo_ hi_ =
  if lo_ = hi_ then lo_
  else
    let n = lookup s l lo_ hi_ in
    if n >= 0 then n else alloc s l lo_ hi_

let gc s =
  let marked = Bytes.make s.capacity '\000' in
  let rec mark n =
    if Bytes.get marked n = '\000' then begin
      Bytes.set marked n '\001';
      if s.lvl.(n) <> tlvl then begin
        mark s.lo.(n);
        mark s.hi.(n)
      end
    end
  in
  for n = 0 to s.capacity - 1 do
    if s.lvl.(n) >= 0 && s.refc.(n) > 0 then mark n
  done;
  s.free_head <- -1;
  s.free_count <- 0;
  for n = s.capacity - 1 downto 0 do
    if s.lvl.(n) >= 0 && Bytes.get marked n = '\000' then begin
      if s.lvl.(n) = tlvl then s.n_terminals <- s.n_terminals - 1;
      s.lvl.(n) <- -1;
      s.hnext.(n) <- s.free_head;
      s.free_head <- n;
      s.free_count <- s.free_count + 1
    end
    else if s.lvl.(n) < 0 then begin
      s.hnext.(n) <- s.free_head;
      s.free_head <- n;
      s.free_count <- s.free_count + 1
    end
  done;
  rehash s;
  s.gcs <- s.gcs + 1;
  (* cached results may reference reclaimed handles *)
  s.cache_gen <- s.cache_gen + 1

let checkpoint s =
  if s.free_count * 4 < s.capacity then begin
    gc s;
    if s.free_count * 4 < s.capacity then grow s
  end

(* --- operation cache --------------------------------------------------- *)

let cache_lookup s tag a b c =
  let set = hash3 (tag lxor (a lsl 3)) b c land (cache_sets - 1) in
  let base = set * cache_ways * ck_stride in
  let rec scan w =
    if w >= cache_ways then begin
      s.c_misses.(tag) <- s.c_misses.(tag) + 1;
      -1
    end
    else
      let o = base + (w * ck_stride) in
      if
        s.cache.(o + 5) = s.cache_gen
        && s.cache.(o) = tag
        && s.cache.(o + 1) = a
        && s.cache.(o + 2) = b
        && s.cache.(o + 3) = c
      then begin
        s.c_hits.(tag) <- s.c_hits.(tag) + 1;
        s.cache.(o + 4)
      end
      else scan (w + 1)
  in
  scan 0

let cache_store s tag a b c r =
  let set = hash3 (tag lxor (a lsl 3)) b c land (cache_sets - 1) in
  let base = set * cache_ways * ck_stride in
  (* prefer a stale slot; otherwise round-robin eviction *)
  let rec find w =
    if w >= cache_ways then -1
    else if s.cache.(base + (w * ck_stride) + 5) <> s.cache_gen then w
    else find (w + 1)
  in
  let w =
    match find 0 with
    | -1 ->
        s.tick <- s.tick + 1;
        s.c_evict.(tag) <- s.c_evict.(tag) + 1;
        s.tick mod cache_ways
    | w -> w
  in
  let o = base + (w * ck_stride) in
  s.cache.(o) <- tag;
  s.cache.(o + 1) <- a;
  s.cache.(o + 2) <- b;
  s.cache.(o + 3) <- c;
  s.cache.(o + 4) <- r;
  s.cache.(o + 5) <- s.cache_gen;
  s.c_stores.(tag) <- s.c_stores.(tag) + 1

let cache_stats s =
  List.init n_tags (fun i ->
      {
        name = tag_names.(i);
        hits = s.c_hits.(i);
        misses = s.c_misses.(i);
        stores = s.c_stores.(i);
        evictions = s.c_evict.(i);
      })

let cache_totals s =
  let h = ref 0 and m = ref 0 and e = ref 0 in
  for i = 0 to n_tags - 1 do
    h := !h + s.c_hits.(i);
    m := !m + s.c_misses.(i);
    e := !e + s.c_evict.(i)
  done;
  (!h, !m, !e)

(* --- apply ------------------------------------------------------------- *)

let op_terminal op a b =
  match op with
  | Add -> sat_add a b
  | Min -> Int.min a b
  | Max -> Int.max a b
  | Mul -> sat_mul a b
  | Diff -> if b = 0 then a else 0

let commutative = function Add | Min | Max | Mul -> true | Diff -> false

let apply s op f g =
  let tag = tag_of_op op in
  let rec go f g =
    (* terminal shortcuts, before touching the cache *)
    if s.lvl.(f) = tlvl && s.lvl.(g) = tlvl then
      terminal s (op_terminal op s.lo.(f) s.lo.(g))
    else
      let shortcut =
        match op with
        | Add -> if f = 0 then g else if g = 0 then f else -1
        | Max -> if f = 0 then g else if g = 0 then f else if f = g then f else -1
        | Min -> if f = 0 || g = 0 then 0 else if f = g then f else -1
        | Mul ->
            if f = 0 || g = 0 then 0
            else if s.lvl.(f) = tlvl && s.lo.(f) = 1 then g
            else if s.lvl.(g) = tlvl && s.lo.(g) = 1 then f
            else -1
        | Diff -> if f = 0 || f = g then 0 else if g = 0 then f else -1
      in
      if shortcut >= 0 then shortcut
      else
        let f, g = if commutative op && f > g then (g, f) else (f, g) in
        let r = cache_lookup s tag f g 0 in
        if r >= 0 then r
        else begin
          let lf = s.lvl.(f) and lg = s.lvl.(g) in
          let l = Int.min lf lg in
          let f0, f1 = if lf = l then (s.lo.(f), s.hi.(f)) else (f, f) in
          let g0, g1 = if lg = l then (s.lo.(g), s.hi.(g)) else (g, g) in
          let r0 = go f0 g0 in
          let r1 = go f1 g1 in
          let r = mk s l r0 r1 in
          cache_store s tag f g 0 r;
          r
        end
  in
  go f g

(* --- quantification by terminal aggregation ---------------------------- *)

let intern_set s levels =
  match Hashtbl.find_opt s.set_ids levels with
  | Some id -> id
  | None ->
      let id = s.n_set in
      if id >= Array.length s.set_arr then begin
        let a = Array.make (Array.length s.set_arr * 2) [||] in
        Array.blit s.set_arr 0 a 0 s.n_set;
        s.set_arr <- a
      end;
      s.set_arr.(id) <- Array.of_list levels;
      s.n_set <- id + 1;
      Hashtbl.add s.set_ids levels id;
      id

(* Scale every terminal by 2^k, saturating: accounts for quantified
   levels absent from a sub-diagram under Sum aggregation. *)
let scale_pow2 s n k =
  if k = 0 || n = 0 then n else apply s Mul n (terminal s (pow2_sat k))

let exist s agg f levels =
  let levels = List.sort_uniq compare levels in
  if levels = [] || f = 0 then f
  else begin
    let set_id = intern_set s levels in
    let lv = s.set_arr.(set_id) in
    let nlv = Array.length lv in
    let tag = match agg with Sum -> tag_exist_sum | Max_agg -> tag_exist_max in
    let combine = match agg with Sum -> Add | Max_agg -> Max in
    let rec go f j =
      if j >= nlv || f = 0 then f
      else begin
        let lf = s.lvl.(f) in
        (* advance past quantified levels above this node: absent from
           the support, so Sum doubles per level and Max is a no-op *)
        let j' = ref j in
        while !j' < nlv && lv.(!j') < lf do
          incr j'
        done;
        let j2 = !j' in
        let core =
          if j2 >= nlv then f
          else begin
            let key = (set_id lsl 16) lor j2 in
            let r = cache_lookup s tag f key 0 in
            if r >= 0 then r
            else
              let r =
                if lv.(j2) = lf then
                  apply s combine (go s.lo.(f) (j2 + 1)) (go s.hi.(f) (j2 + 1))
                else mk s lf (go s.lo.(f) j2) (go s.hi.(f) j2)
              in
              cache_store s tag f key 0 r;
              r
          end
        in
        match agg with
        | Sum -> scale_pow2 s core (j2 - j)
        | Max_agg -> core
      end
    in
    go f 0
  end

(* --- restrict ----------------------------------------------------------- *)

let restrict s f assigns =
  let assigns =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) assigns
  in
  let alv = Array.of_list assigns in
  let na = Array.length alv in
  let memo = Hashtbl.create 64 in
  let rec go f i =
    if f = 0 then 0
    else begin
      let lf = s.lvl.(f) in
      let i = ref i in
      while !i < na && fst alv.(!i) < lf do
        incr i
      done;
      let i = !i in
      if i >= na then f
      else
        match Hashtbl.find_opt memo (f, i) with
        | Some r -> r
        | None ->
            let lvl_i, want = alv.(i) in
            let r =
              if lvl_i = lf then go (if want then s.hi.(f) else s.lo.(f)) (i + 1)
              else mk s lf (go s.lo.(f) i) (go s.hi.(f) i)
            in
            Hashtbl.add memo (f, i) r;
            r
    end
  in
  go f 0

(* --- replace ------------------------------------------------------------ *)

let intern_perm s pairs =
  let pairs =
    List.sort compare (List.filter (fun (a, b) -> a <> b) pairs)
  in
  let key = List.concat_map (fun (a, b) -> [ a; b ]) pairs in
  match Hashtbl.find_opt s.perm_ids key with
  | Some id -> id
  | None ->
      let id = s.n_perm in
      if id >= Array.length s.perm_arr then begin
        let a = Array.make (Array.length s.perm_arr * 2) (Hashtbl.create 1) in
        Array.blit s.perm_arr 0 a 0 s.n_perm;
        s.perm_arr <- a
      end;
      let h = Hashtbl.create (Int.max 4 (List.length pairs)) in
      List.iter (fun (a, b) -> Hashtbl.replace h a b) pairs;
      s.perm_arr.(id) <- h;
      s.n_perm <- id + 1;
      Hashtbl.add s.perm_ids key id;
      id

let map_level s perm_id l =
  match Hashtbl.find_opt s.perm_arr.(perm_id) l with Some d -> d | None -> l

let support_levels s f =
  let seen = Hashtbl.create 64 in
  let levels = Hashtbl.create 16 in
  let rec walk n =
    if (not (Hashtbl.mem seen n)) && s.lvl.(n) <> tlvl then begin
      Hashtbl.add seen n ();
      Hashtbl.replace levels s.lvl.(n) ();
      walk s.lo.(n);
      walk s.hi.(n)
    end
  in
  walk f;
  List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) levels [])

(* The permutation preserves the diagram's level order iff the images of
   the (sorted) support levels are strictly increasing. *)
let order_preserving_on s perm_id f =
  let rec check prev = function
    | [] -> true
    | l :: rest ->
        let m = map_level s perm_id l in
        m > prev && check m rest
  in
  check (-1) (support_levels s f)

(* 0/1 bi-implication diagram over the moved (src, dst) level pairs:
   the equality relation used by the non-order-preserving fallback. *)
let biimp_pairs s pairs =
  List.fold_left
    (fun acc (a, b) ->
      if a = b then acc
      else
        let lo_l, hi_l = if a < b then (a, b) else (b, a) in
        let eq_hi = mk s hi_l 0 (one s) in
        let eq_lo = mk s hi_l (one s) 0 in
        let pair_eq = mk s lo_l eq_lo eq_hi in
        apply s Mul acc pair_eq)
    (one s) pairs

let replace s f pairs =
  let pairs = List.filter (fun (a, b) -> a <> b) pairs in
  if pairs = [] || f = 0 then f
  else begin
    let perm_id = intern_perm s pairs in
    if order_preserving_on s perm_id f then begin
      let rec go n =
        if s.lvl.(n) = tlvl then n
        else
          let r = cache_lookup s tag_replace n perm_id 0 in
          if r >= 0 then r
          else begin
            let r = mk s (map_level s perm_id s.lvl.(n)) (go s.lo.(n)) (go s.hi.(n)) in
            cache_store s tag_replace n perm_id 0 r;
            r
          end
      in
      go f
    end
    else begin
      (* multiply with the equality diagram of the moved levels and
         project the sources out; Max is exact because exactly one
         source assignment matches each target assignment *)
      let eq = biimp_pairs s pairs in
      let prod = apply s Mul f eq in
      exist s Max_agg prod (List.map fst pairs)
    end
  end

(* --- fused relprod_replace --------------------------------------------- *)

let relprod_replace s ?(combine = Mul) ?(agg = Max_agg) f g pairs qlevels =
  let pairs = List.filter (fun (a, b) -> a <> b) pairs in
  let qlevels = List.sort_uniq compare qlevels in
  let fallback () =
    incr fallback_count;
    exist s agg (apply s combine f (replace s g pairs)) qlevels
  in
  if f = 0 || g = 0 then (
    match combine with
    | Mul | Min -> 0
    | Add | Max | Diff -> fallback ())
  else if not (order_preserving_on s (intern_perm s pairs) g) then fallback ()
  else begin
    incr fused_count;
    let perm_id = intern_perm s pairs in
    let set_id = intern_set s qlevels in
    let lv = s.set_arr.(set_id) in
    let nlv = Array.length lv in
    let agg_op = match agg with Sum -> Add | Max_agg -> Max in
    let zero_absorbs = match combine with Mul | Min -> true | _ -> false in
    (* the cache key must separate (combine, agg) variants of the same
       (f, g, perm, set) quadruple *)
    let op_code =
      (match combine with Mul -> 0 | Min -> 1 | Max -> 2 | Add -> 3 | Diff -> 4)
      lor (match agg with Sum -> 8 | Max_agg -> 0)
    in
    let rec go f g j =
      if zero_absorbs && (f = 0 || g = 0) then 0
      else begin
        let lf = s.lvl.(f) in
        let lg = if s.lvl.(g) = tlvl then tlvl else map_level s perm_id s.lvl.(g) in
        if lf = tlvl && lg = tlvl then begin
          let v = op_terminal combine s.lo.(f) s.lo.(g) in
          match agg with
          | Sum -> terminal s (sat_mul v (pow2_sat (nlv - j)))
          | Max_agg -> terminal s v
        end
        else begin
          let l = Int.min lf lg in
          let j' = ref j in
          while !j' < nlv && lv.(!j') < l do
            incr j'
          done;
          let j2 = !j' in
          let key =
            (op_code lsl 56) lor (perm_id lsl 40) lor (set_id lsl 16) lor j2
          in
          let r = cache_lookup s tag_relprod f g key in
          let core =
            if r >= 0 then r
            else begin
              let f0, f1 = if lf = l then (s.lo.(f), s.hi.(f)) else (f, f) in
              let g0, g1 = if lg = l then (s.lo.(g), s.hi.(g)) else (g, g) in
              let r =
                if j2 < nlv && lv.(j2) = l then
                  apply s agg_op (go f0 g0 (j2 + 1)) (go f1 g1 (j2 + 1))
                else mk s l (go f0 g0 j2) (go f1 g1 j2)
              in
              cache_store s tag_relprod f g key r;
              r
            end
          in
          match agg with
          | Sum -> scale_pow2 s core (j2 - j)
          | Max_agg -> core
        end
      end
    in
    go f g 0
  end

(* --- boolean bridges ---------------------------------------------------- *)

let of_bool s m ?(weight = 1) bn =
  let w = terminal s weight in
  let memo = Hashtbl.create 64 in
  let rec go b =
    if b = M.zero then 0
    else if b = M.one then w
    else
      match Hashtbl.find_opt memo b with
      | Some r -> r
      | None ->
          let r = mk s (M.level m b) (go (M.low m b)) (go (M.high m b)) in
          Hashtbl.add memo b r;
          r
  in
  go bn

let threshold_bool s m n k =
  let memo = Hashtbl.create 64 in
  let rec go n =
    if s.lvl.(n) = tlvl then if s.lo.(n) >= k then M.one else M.zero
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
          let r = M.mk m s.lvl.(n) (go s.lo.(n)) (go s.hi.(n)) in
          Hashtbl.add memo n r;
          r
  in
  go n

let to_bool s m n = threshold_bool s m n 1

let threshold s n k =
  let rec go n =
    if s.lvl.(n) = tlvl then if s.lo.(n) >= k then one s else 0
    else
      let r = cache_lookup s tag_threshold n k 0 in
      if r >= 0 then r
      else begin
        let r = mk s s.lvl.(n) (go s.lo.(n)) (go s.hi.(n)) in
        cache_store s tag_threshold n k 0 r;
        r
      end
  in
  go n

(* --- counting, enumeration, diagnostics -------------------------------- *)

let nodecount s n =
  let seen = Hashtbl.create 64 in
  let rec walk n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      if s.lvl.(n) <> tlvl then begin
        walk s.lo.(n);
        walk s.hi.(n)
      end
    end
  in
  walk n;
  Hashtbl.length seen

let satcount s n ~over =
  let over = List.sort_uniq compare over in
  let arr = Array.of_list over in
  let nr = Array.length arr in
  let rank = Hashtbl.create (Int.max 4 nr) in
  Array.iteri (fun i l -> Hashtbl.add rank l i) arr;
  let rank_of f =
    if s.lvl.(f) = tlvl then nr
    else
      match Hashtbl.find_opt rank s.lvl.(f) with
      | Some r -> r
      | None ->
          invalid_arg "Mtbdd.satcount: node depends on a level outside ~over"
  in
  let memo = Hashtbl.create 64 in
  let rec c f =
    if s.lvl.(f) = tlvl then if s.lo.(f) > 0 then 1 else 0
    else
      match Hashtbl.find_opt memo f with
      | Some r -> r
      | None ->
          let rf = rank_of f in
          let part g = c g lsl (rank_of g - rf - 1) in
          let r = part s.lo.(f) + part s.hi.(f) in
          Hashtbl.add memo f r;
          r
  in
  c n lsl rank_of n

let shape s n ~num_vars =
  let out = Array.make num_vars 0 in
  let seen = Hashtbl.create 64 in
  let rec walk n =
    if (not (Hashtbl.mem seen n)) && s.lvl.(n) <> tlvl then begin
      Hashtbl.add seen n ();
      if s.lvl.(n) < num_vars then out.(s.lvl.(n)) <- out.(s.lvl.(n)) + 1;
      walk s.lo.(n);
      walk s.hi.(n)
    end
  in
  walk n;
  out

let iter_weighted s n ~levels k =
  let nl = Array.length levels in
  for i = 1 to nl - 1 do
    if levels.(i - 1) >= levels.(i) then
      invalid_arg "Mtbdd.iter_weighted: ~levels must be sorted ascending"
  done;
  let vals = Array.make nl false in
  let rec go f i =
    if f <> 0 then
      if i = nl then
        if s.lvl.(f) = tlvl then k vals s.lo.(f)
        else
          invalid_arg
            "Mtbdd.iter_weighted: node depends on a variable outside ~levels"
      else begin
        let want = levels.(i) in
        let lf = s.lvl.(f) in
        if lf < want then
          invalid_arg
            "Mtbdd.iter_weighted: node depends on a variable outside ~levels"
        else if lf > want then begin
          vals.(i) <- false;
          go f (i + 1);
          vals.(i) <- true;
          go f (i + 1)
        end
        else begin
          vals.(i) <- false;
          go s.lo.(f) (i + 1);
          vals.(i) <- true;
          go s.hi.(f) (i + 1)
        end
      end
  in
  go n 0

let iter_assignments s n ~levels k =
  iter_weighted s n ~levels (fun vals _w -> k vals)
