open Jedd_lang.Tast
module Ast = Jedd_lang.Ast
module C = Jedd_lang.Constraints
module E = Jedd_lang.Encode

type estimate = { bits : int; nodes : int }

(* Node-count formulas: saturating upper-bound heuristics in the style of
   Adiar's levelized cost predictors (arXiv:2104.12101).  An apply is
   bounded by the product of its operand sizes, any relation by [2^bits]
   over its layout's total bit width, and quantification never grows
   past its input.  Everything saturates at [cap], so arithmetic never
   wraps and "huge" compares stably against a lint threshold. *)
let cap = 1 lsl 52
let clamp n = if n < 0 then cap else min n cap
let pow2 n = if n >= 52 then cap else clamp (1 lsl n)

let mul a b =
  let a = clamp a and b = clamp b in
  if a = 0 || b = 0 then 0 else if a > cap / b then cap else a * b

let add a b = clamp (clamp a + clamp b)

(* a relation about which nothing is known beyond its layout width *)
let unknown ~bits = pow2 bits

(* join/compose: the apply bound capped by the result layout's capacity *)
let product ~left ~right ~result_bits = min (mul left right) (pow2 result_bits)

(* projection and renaming: never above the input or the result layout *)
let project ~nodes ~result_bits = min (clamp nodes) (pow2 result_bits)

type t = { tbl : (int, estimate) Hashtbl.t }

let label_of_pos pos = Format.asprintf "%a" Ast.pp_pos pos

let analyze ?(hints = fun _ -> None) (p : tprogram) (asg : E.assignment) : t
    =
  let width_of name =
    Option.value (List.assoc_opt name asg.E.widths) ~default:0
  in
  let bits_of (e : texpr) =
    List.fold_left
      (fun acc (a : attr_info) ->
        let ph = asg.E.phys_of (C.S_expr e.eid) a.a_name in
        acc + width_of ph.p_name)
      0 e.eschema
  in
  let tbl = Hashtbl.create 64 in
  let rec est (e : texpr) : estimate =
    match Hashtbl.find_opt tbl e.eid with
    | Some r -> r
    | None ->
      let bits = bits_of e in
      let formula =
        match e.edesc with
        | TEmpty | TFull -> 1 (* a terminal *)
        | TVar _ | TCall _ -> unknown ~bits
        | TLiteral tuple -> (* one path: a node per bound bit *)
          ignore tuple;
          add bits 2
        | TBinop (op, a, b) -> (
          let na = (est a).nodes and nb = (est b).nodes in
          match op with
          | Ast.Union -> add na nb
          | Ast.Inter -> min na nb
          | Ast.Diff -> na)
        | TReplace (reps, a) ->
          let na = (est a).nodes in
          (* copies duplicate an attribute's levels; projections and
             renames never grow past the input or the result layout *)
          let copied =
            List.exists (function TCopy _ -> true | _ -> false) reps
          in
          let base = if copied then mul na 2 else na in
          project ~nodes:base ~result_bits:bits
        | TJoin (_, a, _, b, _) ->
          product ~left:(est a).nodes ~right:(est b).nodes
            ~result_bits:bits
      in
      let nodes =
        match hints (label_of_pos e.epos) with
        | Some observed -> observed
        | None -> formula
      in
      let r = { bits; nodes } in
      Hashtbl.replace tbl e.eid r;
      r
  in
  List.iter (fun e -> ignore (est e)) p.all_exprs;
  { tbl }

let estimate t eid = Hashtbl.find_opt t.tbl eid

(* -- profiler CSV replay --------------------------------------------------- *)

(* Split one CSV line into fields, honouring the double quotes
   [Report.to_csv] puts around the label and operand columns. *)
let split_csv_line line =
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let in_quotes = ref false in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> in_quotes := not !in_quotes
      | ',' when not !in_quotes ->
        fields := Buffer.contents buf :: !fields;
        Buffer.clear buf
      | c -> Buffer.add_char buf c)
    line;
  fields := Buffer.contents buf :: !fields;
  List.rev !fields

let hints_of_csv path =
  let table = Hashtbl.create 64 in
  (try
     let ic = open_in path in
     (try
        let header = split_csv_line (input_line ic) in
        let index name =
          let rec go i = function
            | [] -> None
            | h :: t -> if h = name then Some i else go (i + 1) t
          in
          go 0 header
        in
        match (index "label", index "result_nodes") with
        | Some li, Some ni ->
          (try
             while true do
               let fields = split_csv_line (input_line ic) in
               match (List.nth_opt fields li, List.nth_opt fields ni) with
               | Some label, Some nodes -> (
                 match int_of_string_opt (String.trim nodes) with
                 | Some n ->
                   let prev =
                     Option.value
                       (Hashtbl.find_opt table label)
                       ~default:0
                   in
                   Hashtbl.replace table label (max prev n)
                 | None -> ())
               | _ -> ()
             done
           with End_of_file -> ())
        | _ -> ()
      with End_of_file -> ());
     close_in ic
   with Sys_error _ -> ());
  fun label -> Hashtbl.find_opt table label
