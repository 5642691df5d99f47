type t = {
  src : Manager.t;
  dst : Manager.t;
  levels : int array;
  memo : Nodetbl.t;  (* source node -> its copy in [dst] *)
}

exception Unmapped_level of int

let create ~src ~dst ~levels =
  let last = ref (-1) in
  Array.iter
    (fun l' ->
      if l' >= 0 then begin
        if l' <= !last then
          invalid_arg "Transfer.create: level map is not strictly increasing";
        if l' >= Manager.num_vars dst then
          invalid_arg "Transfer.create: level map leaves the destination";
        last := l'
      end)
    levels;
  { src; dst; levels; memo = Nodetbl.create 1024 }

let src t = t.src
let dst t = t.dst

let copy t f =
  let rec go f =
    if Manager.is_terminal f then f
    else
      let r = Nodetbl.find t.memo f in
      if r >= 0 then r
      else begin
        let l = Manager.level t.src f in
        let l' = if l < Array.length t.levels then t.levels.(l) else -1 in
        if l' < 0 then raise (Unmapped_level l);
        let lo = go (Manager.low t.src f) in
        let hi = go (Manager.high t.src f) in
        let r = Manager.mk t.dst l' lo hi in
        Nodetbl.add t.memo f r;
        r
      end
  in
  Manager.addref t.dst (go f)
