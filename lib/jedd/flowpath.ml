type t = {
  class_of : int array;
  members : int list array;
  n_classes : int;
  class_edges : (int * int) list;
  sources : (int * Tast.phys_info) list;
}

type path = { start_phys : Tast.phys_info; through : int list }

(* union-find *)
let rec find parent i =
  if parent.(i) = i then i
  else begin
    parent.(i) <- find parent parent.(i);
    parent.(i)
  end

let union parent a b =
  let ra = find parent a and rb = find parent b in
  if ra <> rb then parent.(ra) <- rb

let analyze (g : Constraints.t) : t =
  let n = Constraints.node_count g in
  let parent = Array.init n (fun i -> i) in
  List.iter (fun (a, b) -> union parent a b) g.Constraints.equality;
  (* dense class ids *)
  let class_ids = Hashtbl.create 64 in
  let n_classes = ref 0 in
  let class_of =
    Array.init n (fun i ->
        let r = find parent i in
        match Hashtbl.find_opt class_ids r with
        | Some c -> c
        | None ->
          let c = !n_classes in
          incr n_classes;
          Hashtbl.add class_ids r c;
          c)
  in
  let members = Array.make !n_classes [] in
  Array.iteri (fun i c -> members.(c) <- i :: members.(c)) class_of;
  let edge_set = Hashtbl.create 64 in
  List.iter
    (fun (a, b) ->
      let ca = class_of.(a) and cb = class_of.(b) in
      if ca <> cb then begin
        Hashtbl.replace edge_set (ca, cb) ();
        Hashtbl.replace edge_set (cb, ca) ()
      end)
    g.Constraints.assignment;
  let class_edges = Hashtbl.fold (fun e () acc -> e :: acc) edge_set [] in
  let sources =
    List.map (fun (i, p) -> (class_of.(i), p)) g.Constraints.specified
  in
  { class_of; members; n_classes = !n_classes; class_edges; sources }

let enumerate t ~max_per_class =
  let neighbours = Array.make t.n_classes [] in
  List.iter (fun (a, b) -> neighbours.(a) <- b :: neighbours.(a)) t.class_edges;
  let found = Array.make t.n_classes [] in
  let counts = Array.make t.n_classes 0 in
  let truncated = ref false in
  (* queued paths are (start, classes last-first): extending one is a
     cons, and only the paths kept are turned around *)
  let q = Queue.create () in
  (* A source class gets the trivial one-class path; if a class has two
     different specs, both become path starts (the SAT clauses will sort
     out consistency, or prove it impossible). *)
  List.iter (fun (c, phys) -> Queue.add (phys, [ c ]) q) t.sources;
  while not (Queue.is_empty q) do
    let start_phys, rev_through = Queue.pop q in
    let last = List.hd rev_through in
    if counts.(last) < max_per_class then begin
      found.(last) <- { start_phys; through = List.rev rev_through } :: found.(last);
      counts.(last) <- counts.(last) + 1;
      List.iter
        (fun next ->
          if not (List.mem next rev_through) then
            Queue.add (start_phys, next :: rev_through) q)
        neighbours.(last)
    end
    else truncated := true
  done;
  (Array.map List.rev found, !truncated)

let unreachable t found =
  let missing = ref [] in
  Array.iteri
    (fun c paths ->
      if paths = [] && t.members.(c) <> [] then missing := c :: !missing)
    found;
  List.rev !missing
