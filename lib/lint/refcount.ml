(* JL100: the static refcount-discipline verifier.

   An abstract interpretation of [Ir.Discipline] over the IR
   control-flow graph: registers move through
   unborn/owned/borrowed/dead states, joins merge path states, and the
   fixpoint proves that on every path each owned intermediate is freed
   or consumed exactly once, nothing is read after its value is gone,
   and no owned value survives to method exit.  The transition rules
   are the same ones [Interp] replays dynamically under
   JEDD_CHECK_IR=1, so a proof here is a proof about what the
   interpreter will actually do. *)

open Jedd_lang
module D = Ir.Discipline

module Solver = Jedd_dataflow.Solver (struct
  type t = D.frame option  (* None = unreachable *)

  let bottom = None

  let join a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a, Some b -> Some (D.join_frame a b)

  let equal a b =
    match (a, b) with
    | None, None -> true
    | Some a, Some b -> D.equal_frame a b
    | _ -> false
end)

(* the abstract effect of one CFG node; collected errors are dropped
   during the fixpoint and gathered in a clean pass afterwards *)
let node_effect (fr : D.frame) (node : Cfg.inode) : string list =
  match node with
  | Cfg.I_instr i -> D.step fr i
  | Cfg.I_cmp (r, r2) -> D.compare_reads fr r r2
  | Cfg.I_ret (Some r) -> D.consume_return fr r
  | Cfg.I_ret None | Cfg.I_entry | Cfg.I_exit | Cfg.I_join -> []

let verify_method (m : Ir.cmethod) : string list =
  let cfg = Cfg.build_ir m in
  let transfer n fact =
    match fact with
    | None -> None
    | Some fr ->
      let fr = D.copy fr in
      ignore (node_effect fr cfg.Cfg.inodes.(n));
      Some fr
  in
  let res =
    Solver.run cfg.Cfg.igraph Jedd_dataflow.Forward
      ~init:(fun n ->
        if n = cfg.Cfg.ientry then Some (D.init m.Ir.c_nregs) else None)
      ~transfer
  in
  (* report from the stable fixpoint only, in node order, deduplicated *)
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add e =
    if not (Hashtbl.mem seen e) then begin
      Hashtbl.add seen e ();
      out := e :: !out
    end
  in
  let size = Jedd_dataflow.Graph.size cfg.Cfg.igraph in
  for n = 0 to size - 1 do
    match res.Solver.before n with
    | None -> ()
    | Some fr -> List.iter add (node_effect (D.copy fr) cfg.Cfg.inodes.(n))
  done;
  (match res.Solver.before cfg.Cfg.iexit with
  | Some fr -> List.iter add (D.leaks fr)
  | None -> ());
  List.rev !out

let check (prog : Tast.tprogram) (methods : (string, Ir.cmethod) Hashtbl.t) :
    Diag.t list * int * int =
  let diags = ref [] in
  let violations = ref 0 in
  let verified = ref 0 in
  List.iter
    (fun q ->
      match Hashtbl.find_opt methods q with
      | None -> ()
      | Some m ->
        incr verified;
        let errs = verify_method m in
        if errs <> [] then begin
          violations := !violations + List.length errs;
          let pos =
            match Hashtbl.find_opt prog.Tast.methods q with
            | Some tm -> tm.Tast.tm_pos
            | None -> { Ast.file = "<ir>"; line = 0; col = 0 }
          in
          diags :=
            Diag.make ~notes:errs ~code:"JL100" ~severity:Diag.Error ~pos
              (Printf.sprintf
                 "register discipline violation in the lowered code of %s" q)
            :: !diags
        end)
    prog.Tast.method_order;
  (!diags, !verified, !violations)
