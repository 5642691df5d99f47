(* Oracles that are not the code under test: the expected analysis
   results come from Jedd_minijava.Reference (sets and worklists, no
   BDDs) and from Program.resolve_virtual (the sequential Figure 4
   walk).  Checkers return the number of tuples by which an answer
   differs from the expectation, so a dropped and an added tuple both
   count. *)

module P = Jedd_minijava.Program
module Ref = Jedd_minijava.Reference
module Suite = Jedd_analyses.Suite

let pairs s = List.map (fun (a, b) -> [ a; b ]) (Ref.IPS.elements s)

(* (callsite, signature, declaring type, method) for every receiver
   object the reference points-to gives the call's receiver. *)
let resolved_of (p : P.t) ref_pt =
  let heaps = Hashtbl.create 256 in
  Ref.IPS.iter (fun (v, h) -> Hashtbl.add heaps v h) ref_pt;
  List.concat_map
    (fun (cs : P.call_site) ->
      List.filter_map
        (fun h ->
          match
            P.resolve_virtual p ~rectype:p.P.heap_type.(h)
              ~signature:cs.P.cs_sig
          with
          | Some m -> Some [ cs.P.cs_id; cs.P.cs_sig; p.P.method_class.(m); m ]
          | None -> None)
        (Hashtbl.find_all heaps cs.P.cs_recv))
    p.P.calls
  |> List.sort_uniq compare

let expected (p : P.t) : Suite.results =
  let hier = Ref.hierarchy p in
  let pt, _ = Ref.points_to p in
  let targets = Ref.call_targets p pt in
  let reach = Ref.reachable p targets in
  let se = Ref.side_effects p pt targets in
  {
    Suite.subtypes = pairs (Ref.IPS.filter (fun (a, b) -> a <> b) hier);
    pt = pairs pt;
    resolved = resolved_of p pt;
    call_edges = pairs targets;
    reachable = List.map (fun m -> [ m ]) (Ref.IS.elements reach);
    side_effects =
      List.map (fun (a, b, c) -> [ a; b; c ]) (Ref.ITS.elements se);
  }

(* Size of the symmetric difference of two tuple lists. *)
let diff_count a b =
  let a = List.sort_uniq compare a and b = List.sort_uniq compare b in
  let rec go a b n =
    match (a, b) with
    | [], l | l, [] -> n + List.length l
    | x :: a', y :: b' ->
      let c = compare x y in
      if c = 0 then go a' b' n
      else if c < 0 then go a' b (n + 1)
      else go a b' (n + 1)
  in
  go a b 0

let results_diff (want : Suite.results) (got : Suite.results) =
  diff_count want.subtypes got.subtypes
  + diff_count want.pt got.pt
  + diff_count want.resolved got.resolved
  + diff_count want.call_edges got.call_edges
  + diff_count want.reachable got.reachable
  + diff_count want.side_effects got.side_effects

(* -- query expectations ------------------------------------------------- *)

module Json = Jedd_server.Json

type query_truth = {
  heaps_of : (int, int list) Hashtbl.t;  (** var -> sorted heaps *)
  pt_set : (int * int, unit) Hashtbl.t;
  targets_of : (int, (int * int * int) list) Hashtbl.t;
      (** callsite -> sorted (signature, type, method) *)
  effects_of : (int * int, int list) Hashtbl.t;
      (** (method, field) -> sorted heaps *)
}

let query_truth (want : Suite.results) =
  let heaps_of = Hashtbl.create 1024 and pt_set = Hashtbl.create 4096 in
  List.iter
    (function
      | [ v; h ] ->
        Hashtbl.replace pt_set (v, h) ();
        Hashtbl.replace heaps_of v
          (h :: Option.value ~default:[] (Hashtbl.find_opt heaps_of v))
      | _ -> ())
    want.pt;
  let targets_of = Hashtbl.create 256 in
  List.iter
    (function
      | [ cs; s; t; m ] ->
        Hashtbl.replace targets_of cs
          ((s, t, m) :: Option.value ~default:[] (Hashtbl.find_opt targets_of cs))
      | _ -> ())
    want.resolved;
  let effects_of = Hashtbl.create 1024 in
  List.iter
    (function
      | [ m; h; f ] ->
        Hashtbl.replace effects_of (m, f)
          (h :: Option.value ~default:[] (Hashtbl.find_opt effects_of (m, f)))
      | _ -> ())
    want.side_effects;
  let sort tbl = Hashtbl.filter_map_inplace (fun _ l -> Some (List.sort compare l)) tbl in
  sort heaps_of;
  sort targets_of;
  sort effects_of;
  { heaps_of; pt_set; targets_of; effects_of }

let ints = function
  | Some (Json.List l) ->
    Some (List.filter_map (function Json.Int i -> Some i | _ -> None) l)
  | _ -> None

let int_field k v = match Json.member k v with Some (Json.Int i) -> Some i | _ -> None

(* 0 when the reply answers the request as the reference says it must,
   otherwise the number of wrong tuples (at least 1). *)
let check_reply truth (req : Json.t) (reply : Json.t) =
  if Json.member "ok" reply <> Some (Json.Bool true) then 1
  else
    let verb = Option.bind (Json.member "verb" req) Json.to_string_opt in
    let arg k = Option.get (int_field k req) in
    let miss_by want got =
      match got with
      | None -> max 1 (List.length want)
      | Some got -> diff_count (List.map (fun x -> [ x ]) want) (List.map (fun x -> [ x ]) got)
    in
    match verb with
    | Some "pointsto" ->
      let want = Option.value ~default:[] (Hashtbl.find_opt truth.heaps_of (arg "var")) in
      miss_by want (ints (Json.member "heaps" reply))
    | Some "member" -> (
      match ints (Json.member "tuple" req) with
      | Some [ v; h ] ->
        let want = Hashtbl.mem truth.pt_set (v, h) in
        if Json.member "member" reply = Some (Json.Bool want) then 0 else 1
      | _ -> 1)
    | Some "resolve" ->
      let want =
        Option.value ~default:[] (Hashtbl.find_opt truth.targets_of (arg "callsite"))
      in
      let got =
        match Json.member "targets" reply with
        | Some (Json.List l) ->
          List.sort compare
            (List.map
               (fun o ->
                 ( Option.value ~default:(-1) (int_field "signature" o),
                   Option.value ~default:(-1) (int_field "tgttype" o),
                   Option.value ~default:(-1) (int_field "method" o) ))
               l)
        | _ -> []
      in
      diff_count
        (List.map (fun (a, b, c) -> [ a; b; c ]) want)
        (List.map (fun (a, b, c) -> [ a; b; c ]) got)
    | Some "tuples" -> (
      (* SideEffects.modSet selected on (srcmethod, field), projected to
         baseheap *)
      match Json.member "select" req with
      | Some sel ->
        let m = Option.get (int_field "srcmethod" sel)
        and f = Option.get (int_field "field" sel) in
        let want = Option.value ~default:[] (Hashtbl.find_opt truth.effects_of (m, f)) in
        let got =
          match Json.member "tuples" reply with
          | Some (Json.List rows) ->
            Some
              (List.filter_map
                 (function Json.List [ Json.Int h ] -> Some h | _ -> None)
                 rows)
          | _ -> None
        in
        let wrong_total =
          if int_field "total" reply = Some (List.length want) then 0 else 1
        in
        max wrong_total (miss_by want got)
      | None -> 1)
    | _ -> 1
