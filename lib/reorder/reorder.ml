module M = Jedd_bdd.Manager

type blk = { bname : string; bvars : int array }

type event = {
  trigger : string;
  strategy : string;
  swaps : int;
  aborts : int;
  nodes_before : int;
  nodes_after : int;
  millis : float;
}

type t = {
  man : M.t;
  mutable blocks : blk list; (* insertion order, newest last *)
  mutable max_growth : float;
  mutable events : event list; (* newest first *)
  mutable auto_fired : int;
}

(* 1.2 is the classic sifting growth bound (BuDDy's bddmaxgrowth,
   CUDD's DD_MAX_REORDER_GROWTH): walking a group in a direction that
   inflates the table past best*1.2 is abandoned early, which is what
   keeps a sifting pass near-linear in practice. *)
let create man =
  { man; blocks = []; max_growth = 1.2; events = []; auto_fired = 0 }

let manager t = t.man
let events t = List.rev t.events
let auto_fired t = t.auto_fired

let set_max_growth t g =
  if g < 1.0 then invalid_arg "Reorder.set_max_growth: bound below 1.0";
  t.max_growth <- g

let register_block t ~name ~vars =
  if Array.length vars > 0 then
    t.blocks <- t.blocks @ [ { bname = name; bvars = Array.copy vars } ]

let check_invariants t = M.check_invariants t.man

(* -- Observability ------------------------------------------------------- *)

let level_histogram t =
  let m = t.man in
  let h = Array.make (max 1 (M.num_vars m)) 0 in
  M.iter_live m (fun n ->
      let l = M.level m n in
      if l < Array.length h then h.(l) <- h.(l) + 1);
  h

let block_attribution t =
  let m = t.man in
  let h = level_histogram t in
  let assigned = Array.make (Array.length h) false in
  let rows =
    List.map
      (fun b ->
        let total =
          Array.fold_left
            (fun acc v ->
              let l = M.level_of_var m v in
              if l < Array.length h then begin
                assigned.(l) <- true;
                acc + h.(l)
              end
              else acc)
            0 b.bvars
        in
        (b.bname, total))
      t.blocks
  in
  let unassigned = ref 0 in
  Array.iteri
    (fun l c -> if not assigned.(l) then unassigned := !unassigned + c)
    h;
  if !unassigned > 0 then rows @ [ ("(unassigned)", !unassigned) ] else rows

(* -- Event-recording wrapper --------------------------------------------- *)

(* Every public transform runs inside this bracket: it opens the
   manager's reorder session (per-level index), collects before/after so
   node counts compare live populations, records an event and accounts
   the pass on the manager's monotone counters. *)
let with_reorder t ~trigger ~strategy f =
  let m = t.man in
  M.reorder_begin m;
  Fun.protect
    ~finally:(fun () -> M.reorder_end m)
    (fun () ->
      M.gc m;
      let nodes_before = M.live_nodes m in
      let swaps0 = M.swap_count m in
      let t0 = Sys.time () in
      let aborts = f () in
      M.gc m;
      let nodes_after = M.live_nodes m in
      let millis = (Sys.time () -. t0) *. 1000.0 in
      t.events <-
        {
          trigger;
          strategy;
          swaps = M.swap_count m - swaps0;
          aborts;
          nodes_before;
          nodes_after;
          millis;
        }
        :: t.events;
      M.record_reorder m ~millis ~aborts)

(* -- Block groups -------------------------------------------------------- *)

(* Reordering moves whole physical-domain blocks, not single bits: the
   relational encodings (equality ladders, interleaved key pairs) depend
   on the internal bit order of a block, and per-bit sifting both breaks
   them apart and squares the search space.  A {e group} is the merged
   level span of overlapping registered blocks (overlap = currently
   interleaved, so the interleaving is preserved as a unit); levels
   belonging to no block become singleton groups.  The result is a
   partition of [0, nvars) into contiguous spans, returned as a width
   array in level order. *)
let build_groups t =
  let m = t.man in
  let n = M.num_vars m in
  let ivals =
    List.map
      (fun b ->
        let lvls = Array.map (M.level_of_var m) b.bvars in
        ( Array.fold_left min max_int lvls,
          Array.fold_left max (-1) lvls ))
      t.blocks
  in
  let ivals = List.sort compare ivals in
  let merged =
    List.fold_left
      (fun acc (lo, hi) ->
        match acc with
        | (plo, phi) :: rest when lo <= phi -> (plo, max phi hi) :: rest
        | _ -> (lo, hi) :: acc)
      [] ivals
  in
  let merged = List.rev merged in
  let widths = ref [] in
  let pos = ref 0 in
  List.iter
    (fun (lo, hi) ->
      while !pos < lo do
        widths := 1 :: !widths;
        incr pos
      done;
      widths := (hi - lo + 1) :: !widths;
      pos := hi + 1)
    merged;
  while !pos < n do
    widths := 1 :: !widths;
    incr pos
  done;
  Array.of_list (List.rev !widths)

(* Exchange two adjacent groups, A of width [wa] starting at level [a]
   and B of width [wb] right below it, by bubbling each B level up
   through A: wa*wb adjacent swaps. *)
let swap_groups m a wa wb =
  for j = 0 to wb - 1 do
    for s = a + wa + j - 1 downto a + j do
      M.swap_adjacent m s
    done
  done

let start_of widths i =
  let s = ref 0 in
  for j = 0 to i - 1 do
    s := !s + widths.(j)
  done;
  !s

(* Collect, then count: sizes compared during search must be live
   populations, not live-plus-garbage. *)
let live_size m =
  M.gc m;
  M.live_nodes m

(* -- Rudell sifting over groups ------------------------------------------ *)

let sift ?(trigger = "manual") t =
  with_reorder t ~trigger ~strategy:"sift" (fun () ->
      let m = t.man in
      let widths = build_groups t in
      let ng = Array.length widths in
      if ng < 2 then 0
      else begin
        let ids = Array.init ng (fun i -> i) in
        let move_down i =
          swap_groups m (start_of widths i) widths.(i) widths.(i + 1);
          let w = widths.(i) in
          widths.(i) <- widths.(i + 1);
          widths.(i + 1) <- w;
          let d = ids.(i) in
          ids.(i) <- ids.(i + 1);
          ids.(i + 1) <- d
        in
        let move_up i = move_down (i - 1) in
        (* Sift heavy groups first: rank by initial node contribution. *)
        let h = level_histogram t in
        let contrib = Array.make ng 0 in
        for i = 0 to ng - 1 do
          let a = start_of widths i in
          for l = a to a + widths.(i) - 1 do
            if l < Array.length h then contrib.(i) <- contrib.(i) + h.(l)
          done
        done;
        let order = Array.init ng (fun i -> i) in
        Array.sort (fun a b -> compare contrib.(b) contrib.(a)) order;
        (* Moving even a feather-weight group still rewrites every heavy
           rank it bubbles through, so groups that cannot matter (under
           ~1.5% of the live population) are not walked at all. *)
        let total = Array.fold_left ( + ) 0 contrib in
        let skip_below = total / 64 in
        let aborts = ref 0 in
        Array.iter
          (fun g ->
            if contrib.(g) <= skip_below then ()
            else
            let p = ref 0 in
            Array.iteri (fun j id -> if id = g then p := j) ids;
            let best = ref (live_size m) in
            let best_p = ref !p in
            let step move upd limit =
              let go = ref true in
              while !go && !p <> limit do
                move !p;
                p := upd !p;
                let s = live_size m in
                if s < !best then begin
                  best := s;
                  best_p := !p
                end
                else if
                  float_of_int s > t.max_growth *. float_of_int !best
                then begin
                  incr aborts;
                  go := false
                end
              done
            in
            let down () = step move_down (fun p -> p + 1) (ng - 1) in
            let up () = step move_up (fun p -> p - 1) 0 in
            (* walk toward the nearer end first, then sweep back *)
            if ng - 1 - !p <= !p then begin
              down ();
              up ()
            end
            else begin
              up ();
              down ()
            end;
            while !p < !best_p do
              move_down !p;
              incr p
            done;
            while !p > !best_p do
              move_up !p;
              decr p
            done)
          order;
        !aborts
      end)

(* -- Windowed permutation search ----------------------------------------- *)

(* Exhaustive search of every permutation of [k] consecutive groups,
   slid across the order.  The cyclic adjacent-swap sequences visit all
   k! states and return to the start, so landing on the winner is a
   replayed prefix. *)
let window ?(trigger = "manual") t k =
  if k <> 2 && k <> 3 then invalid_arg "Reorder.window: k must be 2 or 3";
  with_reorder t ~trigger ~strategy:(Printf.sprintf "window%d" k)
    (fun () ->
      let m = t.man in
      let widths = build_groups t in
      let ng = Array.length widths in
      if ng < k then 0
      else begin
        let gswap i =
          swap_groups m (start_of widths i) widths.(i) widths.(i + 1);
          let w = widths.(i) in
          widths.(i) <- widths.(i + 1);
          widths.(i + 1) <- w
        in
        let seq = if k = 2 then [| 0; 0 |] else [| 0; 1; 0; 1; 0; 1 |] in
        let ns = Array.length seq in
        for i = 0 to ng - k do
          let best = ref (live_size m) in
          let best_state = ref 0 in
          for j = 0 to ns - 2 do
            gswap (i + seq.(j));
            let s = live_size m in
            if s < !best then begin
              best := s;
              best_state := j + 1
            end
          done;
          (* currently in state ns-1; cycle round to the best state *)
          if !best_state <> ns - 1 then begin
            gswap (i + seq.(ns - 1));
            for j = 0 to !best_state - 1 do
              gswap (i + seq.(j))
            done
          end
        done;
        0
      end)

(* -- Interleave / de-interleave transforms ------------------------------- *)

let move_var_to m v target =
  let l = M.level_of_var m v in
  if l < target then
    for s = l to target - 1 do
      M.swap_adjacent m s
    done
  else if l > target then
    for s = l - 1 downto target do
      M.swap_adjacent m s
    done

(* Place the sequence contiguously from the topmost level any of its
   variables currently occupies.  Placing top-down never disturbs the
   already-placed prefix: every unplaced variable still sits strictly
   below it. *)
let apply_var_sequence m seq =
  let start =
    Array.fold_left
      (fun acc v -> min acc (M.level_of_var m v))
      max_int seq
  in
  Array.iteri (fun k v -> move_var_to m v (start + k)) seq

let find_block t name =
  match List.find_opt (fun b -> b.bname = name) t.blocks with
  | Some b -> b
  | None -> invalid_arg ("Reorder: unregistered block " ^ name)

let interleave ?(trigger = "manual") t na nb =
  let a = find_block t na and b = find_block t nb in
  with_reorder t ~trigger ~strategy:"interleave" (fun () ->
      let wa = Array.length a.bvars and wb = Array.length b.bvars in
      (* MSB-aligned round-robin, matching Fdd.extdomains_interleaved. *)
      let seq = ref [] in
      for bit = 0 to max wa wb - 1 do
        if bit < wa then seq := a.bvars.(bit) :: !seq;
        if bit < wb then seq := b.bvars.(bit) :: !seq
      done;
      apply_var_sequence t.man (Array.of_list (List.rev !seq));
      0)

let deinterleave ?(trigger = "manual") t na nb =
  let a = find_block t na and b = find_block t nb in
  with_reorder t ~trigger ~strategy:"deinterleave" (fun () ->
      apply_var_sequence t.man (Array.append a.bvars b.bvars);
      0)

(* -- Random swaps (test harness) ----------------------------------------- *)

let random_swaps ?(seed = 0) t n =
  let m = t.man in
  let nv = M.num_vars m in
  if nv >= 2 && n > 0 then begin
    let st = Random.State.make [| seed |] in
    with_reorder t ~trigger:"manual" ~strategy:"random" (fun () ->
        for _ = 1 to n do
          M.swap_adjacent m (Random.State.int st (nv - 1))
        done;
        0)
  end

(* -- Auto trigger -------------------------------------------------------- *)

(* Fired by [Manager.checkpoint] at a safe point once the allocated-node
   population crosses the armed threshold.  Allocated counts garbage,
   and between collections garbage dominates, so the hook first GCs and
   only sifts if the *live* population has really crossed [threshold].
   Either way it re-arms at live + max(threshold, live): at least
   [threshold] fresh allocations must happen before the hook runs again,
   so a workload that genuinely needs the nodes does not thrash in
   gc/reorder loops, and a converged order stops paying. *)
let install_auto t ~threshold =
  let m = t.man in
  M.set_reorder_threshold m threshold;
  M.set_reorder_hook m
    (Some
       (fun () ->
         M.gc m;
         if M.live_nodes m >= threshold then begin
           t.auto_fired <- t.auto_fired + 1;
           sift ~trigger:"auto-threshold" t
         end;
         let live = M.live_nodes m in
         M.set_reorder_threshold m (live + max threshold live)))

let disable_auto t =
  let m = t.man in
  M.set_reorder_threshold m 0;
  M.set_reorder_hook m None
