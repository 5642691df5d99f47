(* Levelized BDD dumps (see levelized.mli).  The uid encoding mirrors
   Jedd_extmem.Ebdd: 24 high bits of level, 40 low bits of within-level
   index, terminals negative. *)

type t = { blocks : (int * int array * int array) array; root : int }

let shift = 40
let mask = (1 lsl shift) - 1
let t_false = -2
let t_true = -1
let pack l i = (l lsl shift) lor i
let lev u = u lsr shift
let loc u = u land mask
let is_term u = u < 0

exception Malformed of string

let malformed fmt = Format.kasprintf (fun s -> raise (Malformed s)) fmt

let node_count d =
  Array.fold_left (fun n (_, lo, _) -> n + Array.length lo) 0 d.blocks

let support d = Array.to_list (Array.map (fun (l, _, _) -> l) d.blocks)

let validate ~num_vars d =
  let nblocks = Array.length d.blocks in
  (* level index: level -> node count, plus the ordering checks *)
  let counts = Hashtbl.create 16 in
  Array.iteri
    (fun bi (l, lo, hi) ->
      if l < 0 then malformed "negative level %d" l;
      if l >= num_vars then
        malformed "dump level %d outside manager order (%d vars)" l num_vars;
      if bi > 0 then begin
        let prev, _, _ = d.blocks.(bi - 1) in
        if l <= prev then malformed "levels not strictly ascending (%d after %d)" l prev
      end;
      if Array.length lo <> Array.length hi then
        malformed "level %d: lo/hi arrays differ in length" l;
      if Array.length lo = 0 then malformed "level %d: empty block" l;
      Hashtbl.replace counts l (Array.length lo))
    d.blocks;
  let check_child l u =
    if is_term u then begin
      if u <> t_false && u <> t_true then malformed "bad terminal uid %d" u
    end
    else begin
      let cl = lev u and ci = loc u in
      if cl <= l then malformed "child at level %d not below parent level %d" cl l;
      match Hashtbl.find_opt counts cl with
      | None -> malformed "child references missing level %d" cl
      | Some n -> if ci >= n then malformed "child index %d out of range at level %d" ci cl
    end
  in
  Array.iter
    (fun (l, lo, hi) ->
      Array.iteri
        (fun i lo_u ->
          let hi_u = hi.(i) in
          if lo_u = hi_u then malformed "redundant node (lo = hi) at level %d" l;
          check_child l lo_u;
          check_child l hi_u)
        lo)
    d.blocks;
  if is_term d.root then begin
    if d.root <> t_false && d.root <> t_true then malformed "bad root uid %d" d.root;
    if nblocks <> 0 then malformed "terminal root over non-empty blocks"
  end
  else begin
    if nblocks = 0 then malformed "non-terminal root over empty dump";
    (match Hashtbl.find_opt counts (lev d.root) with
    | None -> malformed "root references missing level %d" (lev d.root)
    | Some n ->
      if loc d.root >= n then malformed "root index %d out of range" (loc d.root));
    (* the root must sit in the first block, or upper blocks would be
       unreachable in a single-rooted dump; we only require it exists *)
    ()
  end

let map_levels f d =
  let map_uid u = if is_term u then u else pack (f (lev u)) (loc u) in
  let prev = ref (-1) in
  let blocks =
    Array.map
      (fun (l, lo, hi) ->
        let l' = f l in
        if l' < 0 then malformed "map_levels: negative target level %d" l';
        if l' <= !prev then malformed "map_levels: renaming is not monotone";
        prev := l';
        (l', Array.map map_uid lo, Array.map map_uid hi))
      d.blocks
  in
  { blocks; root = map_uid d.root }

(* -- in-core conversions ------------------------------------------------ *)

let of_manager m root =
  if root = Manager.zero then { blocks = [||]; root = t_false }
  else if root = Manager.one then { blocks = [||]; root = t_true }
  else begin
    (* DFS, assigning each node a per-level index in first-visit order.
       Recursion depth is bounded by the number of levels. *)
    let uid_of : (Manager.node, int) Hashtbl.t = Hashtbl.create 1024 in
    let members : (int, (int ref * Manager.node list ref)) Hashtbl.t =
      Hashtbl.create 64
    in
    let rec visit n =
      if (not (Manager.is_terminal n)) && not (Hashtbl.mem uid_of n) then begin
        let l = Manager.level m n in
        let count, cell =
          match Hashtbl.find_opt members l with
          | Some c -> c
          | None ->
            let c = (ref 0, ref []) in
            Hashtbl.add members l c;
            c
        in
        Hashtbl.add uid_of n (pack l !count);
        incr count;
        cell := n :: !cell;
        visit (Manager.low m n);
        visit (Manager.high m n)
      end
    in
    visit root;
    let uid n =
      if n = Manager.zero then t_false
      else if n = Manager.one then t_true
      else Hashtbl.find uid_of n
    in
    let levels =
      Hashtbl.fold (fun l _ acc -> l :: acc) members [] |> List.sort compare
    in
    let blocks =
      List.map
        (fun l ->
          let nodes = Array.of_list (List.rev !(snd (Hashtbl.find members l))) in
          ( l,
            Array.map (fun n -> uid (Manager.low m n)) nodes,
            Array.map (fun n -> uid (Manager.high m n)) nodes ))
        levels
    in
    { blocks = Array.of_list blocks; root = uid root }
  end

let to_manager m d =
  validate ~num_vars:(Manager.num_vars m) d;
  if d.root = t_false then Manager.addref m Manager.zero
  else if d.root = t_true then Manager.addref m Manager.one
  else begin
    (* Bottom-up: deepest block first, so children always resolve.
       Every constructed node takes an external reference immediately —
       node allocation under a node budget may garbage-collect, and the
       refs are what keep the half-built dump alive through that. *)
    let handle : (int, Manager.node) Hashtbl.t = Hashtbl.create 1024 in
    let created = ref [] in
    let resolve u =
      if u = t_false then Manager.zero
      else if u = t_true then Manager.one
      else Hashtbl.find handle u
    in
    for bi = Array.length d.blocks - 1 downto 0 do
      let l, lo, hi = d.blocks.(bi) in
      Array.iteri
        (fun i lo_u ->
          let n = Manager.mk m l (resolve lo_u) (resolve hi.(i)) in
          ignore (Manager.addref m n);
          created := n :: !created;
          Hashtbl.replace handle (pack l i) n)
        lo
    done;
    let root = Manager.addref m (Hashtbl.find handle d.root) in
    List.iter (Manager.delref m) !created;
    root
  end
