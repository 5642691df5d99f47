(* Conflict-driven clause learning, after MiniSat, with a resolution
   trace for unsat-core extraction.

   Internal literal encoding: variable [v] (0-based) gives literals
   [2v] (positive) and [2v+1] (negative).  The external interface uses
   DIMACS-style integers (1-based, sign for polarity).

   Every clause lives in one flat [int array] arena.  A clause reference
   (cref) is the offset of its header: [arena.(c)] is the literal count,
   [arena.(c + 1)] the original clause id (-1 for a learned clause), and
   the literals follow.  Only learned clauses need more, the crefs
   resolved to derive them, and those sit in a side table. *)

type t = {
  mutable nvars : int;
  mutable arena : int array;
  mutable arena_size : int;
  mutable n_original : int; (* ids handed out, incl. skipped tautologies *)
  mutable n_literals : int;
  antecedents : (int, int list) Hashtbl.t; (* learned cref -> crefs resolved *)
  (* per-variable state *)
  mutable assign : int array; (* -1 unassigned / 0 false / 1 true *)
  mutable var_level : int array;
  mutable reason : int array; (* cref or -1 *)
  mutable activity : float array;
  mutable phase : bool array;
  mutable heap_pos : int array; (* -1 when not in heap *)
  mutable heap : int array;
  mutable heap_size : int;
  mutable seen : bool array; (* [analyze] scratch; all false in between *)
  (* watch lists, indexed by literal code: crefs in [watches.(l)] up to
     [watch_len.(l)], the most recently pushed last *)
  mutable watches : int array array;
  mutable watch_len : int array;
  (* trail *)
  mutable trail : int array;
  mutable trail_size : int;
  mutable trail_head : int;
  mutable trail_lim : int array; (* trail size where level d + 1 starts *)
  mutable level : int; (* current decision level *)
  mutable var_inc : float;
  mutable buf : int array; (* [add_clause] normalisation buffer *)
  (* results *)
  mutable status : result option;
  mutable core : int list;
  mutable empty_clause : bool;
  mutable proof_log : int list list; (* learned clauses, reversed, DIMACS *)
  (* stats *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_propagations : int;
}

and result = Sat | Unsat

let var_decay = 1.0 /. 0.95

let create () =
  {
    nvars = 0;
    arena = Array.make 1024 0;
    arena_size = 0;
    n_original = 0;
    n_literals = 0;
    antecedents = Hashtbl.create 16;
    assign = Array.make 16 (-1);
    var_level = Array.make 16 0;
    reason = Array.make 16 (-1);
    activity = Array.make 16 0.0;
    phase = Array.make 16 false;
    heap_pos = Array.make 16 (-1);
    heap = Array.make 16 0;
    heap_size = 0;
    seen = Array.make 16 false;
    watches = [||];
    watch_len = [||];
    trail = Array.make 16 0;
    trail_size = 0;
    trail_head = 0;
    trail_lim = Array.make 16 0;
    level = 0;
    var_inc = 1.0;
    buf = Array.make 16 0;
    status = None;
    core = [];
    empty_clause = false;
    proof_log = [];
    n_conflicts = 0;
    n_decisions = 0;
    n_propagations = 0;
  }

let num_vars s = s.nvars
let num_clauses s = s.n_original
let num_literals s = s.n_literals
let conflicts s = s.n_conflicts
let decisions s = s.n_decisions
let propagations s = s.n_propagations

(* -- growable arrays ---------------------------------------------------- *)

let extend a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

(* [Array.blit] into an array on the major heap runs the write barrier
   on every element; int arrays need none, so [push_clause] copies each
   clause into the arena with plain stores. *)
let blit_ints (src : int array) src_pos (dst : int array) dst_pos n =
  for k = 0 to n - 1 do
    dst.(dst_pos + k) <- src.(src_pos + k)
  done

let ensure_var_capacity s =
  let cap = Array.length s.assign in
  if s.nvars >= cap then begin
    let ncap = cap * 2 in
    s.assign <- extend s.assign ncap (-1);
    s.var_level <- extend s.var_level ncap 0;
    s.reason <- extend s.reason ncap (-1);
    s.activity <- extend s.activity ncap 0.0;
    s.phase <- extend s.phase ncap false;
    s.heap_pos <- extend s.heap_pos ncap (-1);
    s.heap <- extend s.heap ncap 0;
    s.seen <- extend s.seen ncap false;
    s.trail <- extend s.trail ncap 0;
    s.trail_lim <- extend s.trail_lim ncap 0
  end

(* -- VSIDS heap --------------------------------------------------------- *)

let heap_less s a b = s.activity.(a) > s.activity.(b)

let heap_swap s i j =
  let a = s.heap.(i) and b = s.heap.(j) in
  s.heap.(i) <- b;
  s.heap.(j) <- a;
  s.heap_pos.(a) <- j;
  s.heap_pos.(b) <- i

let rec heap_up s i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if heap_less s s.heap.(i) s.heap.(parent) then begin
      heap_swap s i parent;
      heap_up s parent
    end
  end

let rec heap_down s i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let best = ref i in
  if l < s.heap_size && heap_less s s.heap.(l) s.heap.(!best) then best := l;
  if r < s.heap_size && heap_less s s.heap.(r) s.heap.(!best) then best := r;
  if !best <> i then begin
    heap_swap s i !best;
    heap_down s !best
  end

let heap_insert s v =
  if s.heap_pos.(v) < 0 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    heap_up s s.heap_pos.(v)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    s.heap_pos.(s.heap.(0)) <- 0
  end;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then heap_down s 0;
  v

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then begin
    for i = 0 to s.nvars - 1 do
      s.activity.(i) <- s.activity.(i) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  if s.heap_pos.(v) >= 0 then heap_up s s.heap_pos.(v)

let decay_activities s = s.var_inc <- s.var_inc *. var_decay

(* -- basic literal machinery -------------------------------------------- *)

let var_of lit = lit lsr 1
let neg lit = lit lxor 1

let lit_value s lit =
  let a = s.assign.(var_of lit) in
  if a < 0 then -1 else a lxor (lit land 1)

let new_var s =
  let v = s.nvars in
  s.nvars <- v + 1;
  ensure_var_capacity s;
  heap_insert s v;
  v + 1

(* -- clause arena --------------------------------------------------------- *)

(* Append a clause with literals [lits.(0 .. n-1)]; returns its cref. *)
let push_clause s ~id lits n =
  let c = s.arena_size in
  if c + n + 2 > Array.length s.arena then
    s.arena <- extend s.arena (max (2 * Array.length s.arena) (c + n + 2)) 0;
  s.arena.(c) <- n;
  s.arena.(c + 1) <- id;
  blit_ints lits 0 s.arena (c + 2) n;
  s.arena_size <- c + n + 2;
  c

let watch s lit c =
  let n = s.watch_len.(lit) in
  let ws = s.watches.(lit) in
  if n = Array.length ws then
    s.watches.(lit) <- extend ws (max 4 (2 * n)) 0;
  s.watches.(lit).(n) <- c;
  s.watch_len.(lit) <- n + 1

(* Watch the first two literals of every clause of two or more, in
   arena (= addition) order, so each list ends with its newest clause. *)
let attach_watches s =
  let nlits = 2 * s.nvars in
  let count = Array.make nlits 0 in
  let c = ref 0 in
  while !c < s.arena_size do
    let n = s.arena.(!c) in
    if n >= 2 then begin
      count.(s.arena.(!c + 2)) <- count.(s.arena.(!c + 2)) + 1;
      count.(s.arena.(!c + 3)) <- count.(s.arena.(!c + 3)) + 1
    end;
    c := !c + n + 2
  done;
  s.watches <- Array.map (fun k -> Array.make k 0) count;
  s.watch_len <- Array.make nlits 0;
  c := 0;
  while !c < s.arena_size do
    let n = s.arena.(!c) in
    if n >= 2 then begin
      watch s s.arena.(!c + 2) !c;
      watch s s.arena.(!c + 3) !c
    end;
    c := !c + n + 2
  done

let enqueue s lit reason =
  let v = var_of lit in
  s.assign.(v) <- 1 - (lit land 1);
  s.var_level.(v) <- s.level;
  s.reason.(v) <- reason;
  s.phase.(v) <- lit land 1 = 0;
  s.trail.(s.trail_size) <- lit;
  s.trail_size <- s.trail_size + 1

(* -- unsat-core extraction (from a level-0 conflict) --------------------- *)

let extract_core s confl =
  let core = Hashtbl.create 64 in
  let seen_clause = Hashtbl.create 256 in
  let seen_var = Array.make (max 1 s.nvars) false in
  let rec visit_clause c =
    if c >= 0 && not (Hashtbl.mem seen_clause c) then begin
      Hashtbl.add seen_clause c ();
      let id = s.arena.(c + 1) in
      if id >= 0 then Hashtbl.replace core id ()
      else List.iter visit_clause (Hashtbl.find s.antecedents c);
      for k = c + 2 to c + 1 + s.arena.(c) do
        let v = var_of s.arena.(k) in
        if not seen_var.(v) then begin
          seen_var.(v) <- true;
          if s.reason.(v) >= 0 then visit_clause s.reason.(v)
        end
      done
    end
  in
  visit_clause confl;
  List.sort compare (Hashtbl.fold (fun id () acc -> id :: acc) core [])

(* internal lit from DIMACS int *)
let lit_of_dimacs d =
  if d = 0 then invalid_arg "Solver.add_clause: zero literal";
  let v = abs d - 1 in
  if d > 0 then 2 * v else (2 * v) + 1

(* Sort [buf.(0 .. n-1)] ascending and drop duplicates; returns the new
   length.  Insertion sort: clauses are short and the encoder's arrive
   already in ascending order, where it is linear. *)
let sort_uniq_prefix (buf : int array) n =
  for i = 1 to n - 1 do
    let x = buf.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && buf.(!j) > x do
      buf.(!j + 1) <- buf.(!j);
      decr j
    done;
    buf.(!j + 1) <- x
  done;
  if n = 0 then 0
  else begin
    let m = ref 1 in
    for i = 1 to n - 1 do
      if buf.(i) <> buf.(!m - 1) then begin
        buf.(!m) <- buf.(i);
        incr m
      end
    done;
    !m
  end

(* Convert [dimacs] into [s.buf] from position [k]; returns the length. *)
let rec fill_buf s k = function
  | [] -> k
  | d :: rest ->
    if k = Array.length s.buf then s.buf <- extend s.buf (2 * k) 0;
    s.buf.(k) <- lit_of_dimacs d;
    fill_buf s (k + 1) rest

let add_clause s dimacs_lits =
  let id = s.n_original in
  s.n_original <- id + 1;
  let n = fill_buf s 0 dimacs_lits in
  let buf = s.buf in
  for k = 0 to n - 1 do
    while var_of buf.(k) >= s.nvars do
      ignore (new_var s)
    done
  done;
  s.n_literals <- s.n_literals + n;
  let m = sort_uniq_prefix buf n in
  (* sorted, so a literal and its negation are neighbours *)
  let tautology = ref false in
  for k = 1 to m - 1 do
    if buf.(k) = neg buf.(k - 1) then tautology := true
  done;
  if !tautology then id
  else begin
    (* Literals already false at level 0 are kept: removing them would
       have to fold their level-0 reasons into this clause's antecedents
       for core soundness, and the watch machinery handles them. *)
    (match m with
    | 0 ->
      s.empty_clause <- true;
      s.status <- Some Unsat;
      s.proof_log <- [ [] ];
      s.core <- [ id ]
    | 1 -> (
      let l = buf.(0) in
      let c = push_clause s ~id buf 1 in
      (* Unit clause: assert at level 0 (if consistent). *)
      match lit_value s l with
      | 1 -> ()
      | 0 ->
        (* Immediate level-0 conflict with earlier units. *)
        s.status <- Some Unsat;
        s.proof_log <- [ [] ];
        s.core <- extract_core s c
      | _ -> enqueue s l c)
    | _ -> ignore (push_clause s ~id buf m));
    id
  end

(* -- propagation --------------------------------------------------------- *)

let reverse (a : int array) n =
  let i = ref 0 and j = ref (n - 1) in
  while !i < !j do
    let x = a.(!i) in
    a.(!i) <- a.(!j);
    a.(!j) <- x;
    incr i;
    decr j
  done

(* Returns the cref of a conflicting clause, or -1.  A watch list is
   visited newest first and its surviving watches are stored back in
   visit order, so the next visit starts from the last survivor: the
   visiting order of a list that is consed onto and rebuilt by consing,
   which fixes the search path and hence the model. *)
let propagate s =
  let confl = ref (-1) in
  while !confl < 0 && s.trail_head < s.trail_size do
    let p = s.trail.(s.trail_head) in
    s.trail_head <- s.trail_head + 1;
    s.n_propagations <- s.n_propagations + 1;
    let false_lit = neg p in
    let ws = s.watches.(false_lit) in
    let n = s.watch_len.(false_lit) in
    reverse ws n;
    let arena = s.arena in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = ws.(!i) in
      incr i;
      let w0 = c + 2 in
      if arena.(w0) = false_lit then begin
        arena.(w0) <- arena.(w0 + 1);
        arena.(w0 + 1) <- false_lit
      end;
      if lit_value s arena.(w0) = 1 then begin
        (* already satisfied: keep watching false_lit *)
        ws.(!j) <- c;
        incr j
      end
      else begin
        (* look for a new watch *)
        let stop = w0 + arena.(c) in
        let k = ref (w0 + 2) in
        while !k < stop && lit_value s arena.(!k) = 0 do
          incr k
        done;
        if !k < stop then begin
          arena.(w0 + 1) <- arena.(!k);
          arena.(!k) <- false_lit;
          watch s arena.(w0 + 1) c
        end
        else begin
          ws.(!j) <- c;
          incr j;
          if lit_value s arena.(w0) = 0 then begin
            (* conflict: keep the unvisited watches, then stop *)
            while !i < n do
              ws.(!j) <- ws.(!i);
              incr i;
              incr j
            done;
            s.trail_head <- s.trail_size;
            confl := c
          end
          else enqueue s arena.(w0) c
        end
      end
    done;
    s.watch_len.(false_lit) <- !j
  done;
  !confl

(* -- conflict analysis ---------------------------------------------------- *)

let analyze s confl_c =
  let seen = s.seen in
  let learnt = ref [] in
  let antecedents = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let confl = ref confl_c in
  let index = ref s.trail_size in
  let continue = ref true in
  while !continue do
    antecedents := !confl :: !antecedents;
    let c = !confl in
    for k = c + 2 to c + 1 + s.arena.(c) do
      let q = s.arena.(k) in
      if q <> !p then begin
        let v = var_of q in
        if (not seen.(v)) && s.var_level.(v) > 0 then begin
          seen.(v) <- true;
          bump_var s v;
          if s.var_level.(v) >= s.level then incr counter
          else learnt := q :: !learnt
        end
      end
    done;
    (* pick next literal to resolve on *)
    let rec next () =
      decr index;
      let q = s.trail.(!index) in
      if seen.(var_of q) then q else next ()
    in
    let q = next () in
    seen.(var_of q) <- false;
    decr counter;
    if !counter = 0 then begin
      p := neg q;
      continue := false
    end
    else begin
      p := q;
      confl := s.reason.(var_of q)
    end
  done;
  (* the current level's variables were cleared as they were resolved *)
  List.iter (fun q -> seen.(var_of q) <- false) !learnt;
  let learnt_lits = !p :: !learnt in
  (* Backjump level: highest level among the non-asserting literals. *)
  let bj_level =
    List.fold_left
      (fun acc q -> max acc s.var_level.(var_of q))
      0 !learnt
  in
  (learnt_lits, bj_level, !antecedents)

let backtrack s level =
  if s.level > level then begin
    let bound = s.trail_lim.(level) in
    while s.trail_size > bound do
      s.trail_size <- s.trail_size - 1;
      let v = var_of s.trail.(s.trail_size) in
      s.assign.(v) <- -1;
      s.reason.(v) <- -1;
      heap_insert s v
    done;
    s.level <- level
  end;
  s.trail_head <- s.trail_size

(* -- search --------------------------------------------------------------- *)

(* Luby sequence, 1-indexed: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  (* find k with i <= 2^k - 1 *)
  let rec size k = if (1 lsl k) - 1 >= i then k else size (k + 1) in
  let k = size 1 in
  if i = (1 lsl k) - 1 then 1 lsl (k - 1)
  else luby (i - ((1 lsl (k - 1)) - 1))

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then -1
    else
      let v = heap_pop s in
      if s.assign.(v) < 0 then v else go ()
  in
  go ()

let dimacs_of_lit lit =
  let v = var_of lit + 1 in
  if lit land 1 = 0 then v else -v

let learn_clause s lits antecedents =
  s.proof_log <- List.map dimacs_of_lit lits :: s.proof_log;
  let arr = Array.of_list lits in
  let n = Array.length arr in
  if n = 1 then begin
    let l = arr.(0) in
    backtrack s 0;
    let c = push_clause s ~id:(-1) arr 1 in
    Hashtbl.replace s.antecedents c antecedents;
    if lit_value s l = 0 then (* level-0 conflict right away *) Some c
    else begin
      if lit_value s l < 0 then enqueue s l c;
      None
    end
  end
  else begin
    (* watched literals: the asserting literal and one literal of the
       backjump level, i.e. of maximal level among the others *)
    let best = ref 1 in
    for k = 2 to n - 1 do
      if s.var_level.(var_of arr.(k)) > s.var_level.(var_of arr.(!best)) then
        best := k
    done;
    let tmp = arr.(1) in
    arr.(1) <- arr.(!best);
    arr.(!best) <- tmp;
    let c = push_clause s ~id:(-1) arr n in
    Hashtbl.replace s.antecedents c antecedents;
    watch s arr.(0) c;
    watch s arr.(1) c;
    enqueue s arr.(0) c;
    None
  end

let solve s =
  match s.status with
  | Some r -> r
  | None ->
    attach_watches s;
    let result = ref None in
    let restart_count = ref 0 in
    let conflicts_until_restart = ref (100 * luby 1) in
    (* top-level propagation of unit clauses *)
    (while !result = None do
       let confl = propagate s in
       if confl >= 0 then begin
         s.n_conflicts <- s.n_conflicts + 1;
         if s.level = 0 then begin
           s.core <- extract_core s confl;
           result := Some Unsat
         end
         else begin
           let lits, bj, antecedents = analyze s confl in
           backtrack s bj;
           (match learn_clause s lits antecedents with
           | Some conflicting ->
             s.core <- extract_core s conflicting;
             result := Some Unsat
           | None -> ());
           decay_activities s
         end
       end
       else if s.n_conflicts >= !conflicts_until_restart then begin
         incr restart_count;
         conflicts_until_restart :=
           s.n_conflicts + (100 * luby (!restart_count + 1));
         backtrack s 0
       end
       else begin
         match pick_branch_var s with
         | -1 -> result := Some Sat
         | v ->
           s.n_decisions <- s.n_decisions + 1;
           s.trail_lim.(s.level) <- s.trail_size;
           s.level <- s.level + 1;
           let lit = if s.phase.(v) then 2 * v else (2 * v) + 1 in
           enqueue s lit (-1)
       end
     done);
    let r = match !result with Some r -> r | None -> assert false in
    if r = Unsat then s.proof_log <- [] :: s.proof_log;
    s.status <- Some r;
    r

let value s v =
  match s.status with
  | Some Sat ->
    let a = s.assign.(v - 1) in
    a = 1
  | _ -> invalid_arg "Solver.value: no model available"

let unsat_core s =
  match s.status with
  | Some Unsat -> s.core
  | _ -> invalid_arg "Solver.unsat_core: instance not proven unsatisfiable"

let proof s =
  match s.status with
  | Some Unsat -> List.rev s.proof_log
  | _ -> invalid_arg "Solver.proof: instance not proven unsatisfiable"

let minimize_core ~rebuild core =
  let rec shrink kept candidates =
    match candidates with
    | [] -> List.sort compare kept
    | c :: rest ->
      let subset = kept @ rest in
      let s, id_map = rebuild subset in
      (match solve s with
      | Unsat ->
        (* still unsat without [c]: drop it, and restrict to the new
           (possibly smaller) core *)
        let new_core = List.map id_map (unsat_core s) in
        let new_core_set = List.sort_uniq compare new_core in
        let keep x = List.mem x new_core_set in
        shrink (List.filter keep kept) (List.filter keep rest)
      | Sat -> shrink (c :: kept) rest)
  in
  shrink [] core
