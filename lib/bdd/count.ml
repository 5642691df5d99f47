type man = Manager.t
type node = Manager.node

let satcount m f ~over =
  let over = List.sort_uniq compare over in
  let n = List.length over in
  (* rank.(l) = position of level l within [over], -1 outside it; the
     count below a node is relative to its rank, so that every skipped
     variable doubles it *)
  let rank = Array.make (Manager.num_vars m) (-1) in
  List.iteri
    (fun i l -> if l >= 0 && l < Array.length rank then rank.(l) <- i)
    over;
  let rank_of g =
    let r = rank.(Manager.level m g) in
    if r < 0 then
      invalid_arg "Count.satcount: BDD depends on a variable outside ~over";
    r
  in
  let memo = Nodetbl.create 256 in
  (* c g rg = number of assignments of the variables of [over] with
     rank >= rg = rank_of g that satisfy the internal node g; part h rg
     counts a child h of a node of rank rg over the same variables.
     Every reachable node is visited once, so every support level is
     checked against [over] on the way. *)
  let rec c g rg =
    let r = Nodetbl.find memo g in
    if r >= 0 then r
    else begin
      let r = part (Manager.low m g) rg + part (Manager.high m g) rg in
      Nodetbl.add memo g r;
      r
    end
  and part h rg =
    if h = Manager.zero then 0
    else if h = Manager.one then 1 lsl (n - rg - 1)
    else
      let rh = rank_of h in
      c h rh lsl (rh - rg - 1)
  in
  if f = Manager.zero then 0
  else if f = Manager.one then 1 lsl n
  else
    let rf = rank_of f in
    c f rf lsl rf

let satcount_all m f =
  let all = List.init (Manager.num_vars m) (fun i -> i) in
  satcount m f ~over:all

let nodecount_many m roots =
  let seen = Hashtbl.create 1024 in
  let rec go f =
    if (not (Manager.is_terminal f)) && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      go (Manager.low m f);
      go (Manager.high m f)
    end
  in
  List.iter go roots;
  Hashtbl.length seen

let nodecount m f = nodecount_many m [ f ]

let shape m f =
  let counts = Array.make (Manager.num_vars m) 0 in
  let seen = Hashtbl.create 1024 in
  let rec go f =
    if (not (Manager.is_terminal f)) && not (Hashtbl.mem seen f) then begin
      Hashtbl.add seen f ();
      counts.(Manager.level m f) <- counts.(Manager.level m f) + 1;
      go (Manager.low m f);
      go (Manager.high m f)
    end
  in
  go f;
  counts
