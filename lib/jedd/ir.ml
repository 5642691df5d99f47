(* The lowered intermediate representation: the operation sequence
   jeddc's generated Java performs (§3.2 "code generation strategy").

   Expressions compile to straight-line three-address code over virtual
   registers; every physical-domain decision is explicit — layouts are
   spelled out on constants and literals, and [IReplace] appears exactly
   where the assignment stage kept a replace.  Statements stay
   structured (the host subset has no unstructured control flow).

   Register discipline: a register is written once and consumed once;
   [IFree] releases owned intermediates immediately after their
   consumption (§4.2 case 1), while registers loaded from variables
   borrow the container's handle and are never freed. *)

type reg = int

(* a concrete layout: attribute name -> physical domain name, ordered *)
type layout = (string * string) list

type operand = Op_int of int | Op_objparam of string

type instr =
  | ILoad of reg * Tast.var_key  (** borrow a variable's relation *)
  | IStore of Tast.var_key * reg  (** store (consumes the register) *)
  | IStoreUnion of Tast.var_key * reg  (** the |= / &= / -= family *)
  | IStoreInter of Tast.var_key * reg
  | IStoreDiff of Tast.var_key * reg
  | IConst of reg * bool * layout  (** 0B (false) / 1B (true) *)
  | ILiteral of reg * layout * operand list
  | IUnion of reg * reg * reg
  | IInter of reg * reg * reg
  | IDiff of reg * reg * reg
  | IProject of reg * reg * string list  (** attribute names removed *)
  | IRename of reg * reg * (string * string) list
  | ICopy of reg * reg * string * string * string
      (** dst, src, from-attr, new-attr, physdom of the new attr *)
  | IJoin of reg * reg * string list * reg * string list
  | ICompose of reg * reg * string list * reg * string list
  | IReplace of reg * reg * layout  (** coerce to the given layout *)
  | ICall of reg option * string * call_arg list
  | IFree of reg  (** release an owned intermediate *)
  | IKill of Tast.var_key  (** liveness: release a variable's handle *)
  | IPrint of reg

and call_arg = Carg_reg of reg | Carg_obj of operand

(* conditions compile to code computing two registers plus a comparison
   mode; 0B/1B comparands become emptiness/fullness tests *)
type ccond =
  | Cbool of bool
  | Cnot of ccond
  | Cand of ccond * ccond
  | Cor of ccond * ccond
  | Ceq of instr list * reg * cmp_rhs
  | Cne of instr list * reg * cmp_rhs

and cmp_rhs =
  | Rhs_reg of instr list * reg
  | Rhs_empty  (** compare against 0B *)
  | Rhs_full  (** compare against 1B *)

type cstmt =
  | CExec of instr list
  | CBlock of cstmt list
  | CIf of ccond * cstmt list * cstmt list
  | CWhile of ccond * cstmt list
  | CDoWhile of cstmt list * ccond
  | CReturn of instr list * reg option

type cmethod = {
  c_qualified : string;
  c_params : Tast.tparam list;
  c_body : cstmt list;
  c_nregs : int;
}

(* ------------------------------------------------------------------ *)

let pp_layout ppf layout =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
       (fun ppf (a, p) -> Format.fprintf ppf "%s:%s" a p))
    layout

let pp_operand ppf = function
  | Op_int n -> Format.pp_print_int ppf n
  | Op_objparam s -> Format.pp_print_string ppf s

let pp_instr ppf (i : instr) =
  let strings = String.concat ", " in
  match i with
  | ILoad (r, v) -> Format.fprintf ppf "r%d := load %s" r v
  | IStore (v, r) -> Format.fprintf ppf "store %s := r%d" v r
  | IStoreUnion (v, r) -> Format.fprintf ppf "store %s |= r%d" v r
  | IStoreInter (v, r) -> Format.fprintf ppf "store %s &= r%d" v r
  | IStoreDiff (v, r) -> Format.fprintf ppf "store %s -= r%d" v r
  | IConst (r, full, l) ->
    Format.fprintf ppf "r%d := %s %a" r (if full then "1B" else "0B") pp_layout l
  | ILiteral (r, l, objs) ->
    Format.fprintf ppf "r%d := new {%a} %a" r
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
         pp_operand)
      objs pp_layout l
  | IUnion (d, a, b) -> Format.fprintf ppf "r%d := r%d | r%d" d a b
  | IInter (d, a, b) -> Format.fprintf ppf "r%d := r%d & r%d" d a b
  | IDiff (d, a, b) -> Format.fprintf ppf "r%d := r%d - r%d" d a b
  | IProject (d, s, attrs) ->
    Format.fprintf ppf "r%d := project r%d away {%s}" d s (strings attrs)
  | IRename (d, s, pairs) ->
    Format.fprintf ppf "r%d := rename r%d {%s}" d s
      (strings (List.map (fun (a, b) -> a ^ "=>" ^ b) pairs))
  | ICopy (d, s, a, c, p) ->
    Format.fprintf ppf "r%d := copy r%d %s as %s in %s" d s a c p
  | IJoin (d, a, la, b, lb) ->
    Format.fprintf ppf "r%d := r%d{%s} >< r%d{%s}" d a (strings la) b
      (strings lb)
  | ICompose (d, a, la, b, lb) ->
    Format.fprintf ppf "r%d := r%d{%s} <> r%d{%s}" d a (strings la) b
      (strings lb)
  | IReplace (d, s, l) ->
    Format.fprintf ppf "r%d := replace r%d %a" d s pp_layout l
  | ICall (Some d, q, _) -> Format.fprintf ppf "r%d := call %s" d q
  | ICall (None, q, _) -> Format.fprintf ppf "call %s" q
  | IFree r -> Format.fprintf ppf "free r%d" r
  | IKill v -> Format.fprintf ppf "kill %s" v
  | IPrint r -> Format.fprintf ppf "print r%d" r

let rec pp_cstmt ppf (s : cstmt) =
  let pp_block ppf b =
    List.iter (fun s -> Format.fprintf ppf "%a" pp_cstmt s) b
  in
  let pp_instrs ppf is =
    List.iter (fun i -> Format.fprintf ppf "  %a@." pp_instr i) is
  in
  match s with
  | CExec is -> pp_instrs ppf is
  | CBlock b -> pp_block ppf b
  | CIf (_, th, el) ->
    Format.fprintf ppf "  if ... {@.%a  } else {@.%a  }@." pp_block th
      pp_block el
  | CWhile (_, body) ->
    Format.fprintf ppf "  while ... {@.%a  }@." pp_block body
  | CDoWhile (body, _) ->
    Format.fprintf ppf "  do {@.%a  } while ...@." pp_block body
  | CReturn (is, Some r) ->
    Format.fprintf ppf "%a  return r%d@." pp_instrs is r
  | CReturn (is, None) -> Format.fprintf ppf "%a  return@." pp_instrs is

let pp_method ppf (m : cmethod) =
  Format.fprintf ppf "method %s (%d registers):@." m.c_qualified m.c_nregs;
  List.iter (pp_cstmt ppf) m.c_body

(* instruction count, for code-size reporting *)
let rec stmt_size (s : cstmt) =
  match s with
  | CExec is -> List.length is
  | CBlock b -> List.fold_left (fun a s -> a + stmt_size s) 0 b
  | CIf (c, th, el) ->
    cond_size c
    + List.fold_left (fun a s -> a + stmt_size s) 0 th
    + List.fold_left (fun a s -> a + stmt_size s) 0 el
  | CWhile (c, body) | CDoWhile (body, c) ->
    cond_size c + List.fold_left (fun a s -> a + stmt_size s) 0 body
  | CReturn (is, _) -> List.length is

and cond_size (c : ccond) =
  match c with
  | Cbool _ -> 0
  | Cnot c -> cond_size c
  | Cand (a, b) | Cor (a, b) -> cond_size a + cond_size b
  | Ceq (is, _, rhs) | Cne (is, _, rhs) -> (
    List.length is
    + match rhs with Rhs_reg (is2, _) -> List.length is2 | _ -> 0)

let method_size m = List.fold_left (fun a s -> a + stmt_size s) 0 m.c_body

(* ------------------------------------------------------------------ *)
(* The §4.2 register/ownership discipline as an explicit state machine.

   [Lower] must write each register before it is read, consume owned
   intermediates exactly once, free them right after consumption, and
   never touch a register once its value is gone; [IKill] retires a
   variable's handle, after which only a plain store may revive it.

   The static verifier ([Jedd_lint.Refcount]) proves these rules over
   every path of the IR control-flow graph; the dynamic checker
   ([Interp] under JEDD_CHECK_IR=1) asserts them on the actually
   executed path.  Both share the transition rules below, so the prover
   and the runtime can never drift apart. *)

module Discipline = struct
  module SS = Set.Make (String)

  type state =
    | Unborn  (* never written *)
    | Owned  (* holds a value this frame must free or consume *)
    | Borrowed  (* views a container's value; freeing it is a no-op *)
    | Dead  (* consumed or freed: the value is gone *)
    | Maybe_borrowed  (* borrowed on some paths, dead on others (join) *)
    | Conflict  (* owned on some paths only: any use is a leak or fault *)

  let state_to_string = function
    | Unborn -> "unborn"
    | Owned -> "owned"
    | Borrowed -> "borrowed"
    | Dead -> "dead"
    | Maybe_borrowed -> "maybe-borrowed"
    | Conflict -> "conflicted"

  let join_state a b =
    if a = b then a
    else
      match (a, b) with
      | Conflict, _ | _, Conflict | Owned, _ | _, Owned -> Conflict
      | (Borrowed | Maybe_borrowed), _ | _, (Borrowed | Maybe_borrowed) ->
        Maybe_borrowed
      | (Unborn | Dead), (Unborn | Dead) -> Dead

  (* a frame's abstract state: one state per register, plus the set of
     variables whose handle a liveness kill has retired *)
  type frame = { regs : state array; mutable killed : SS.t }

  let init nregs = { regs = Array.make (max 1 nregs) Unborn; killed = SS.empty }
  let copy fr = { regs = Array.copy fr.regs; killed = fr.killed }

  let equal_frame a b = a.regs = b.regs && SS.equal a.killed b.killed

  let join_frame a b =
    {
      regs =
        Array.init (Array.length a.regs) (fun i ->
            join_state a.regs.(i) b.regs.(i));
      killed = SS.union a.killed b.killed;
    }

  let read_error = function
    | Owned | Borrowed -> None
    | Unborn -> Some "read before being written"
    | Dead -> Some "read after being consumed or freed"
    | Maybe_borrowed -> Some "read but dead on some path"
    | Conflict -> Some "read in conflicting ownership states"

  let read fr r acc =
    match read_error fr.regs.(r) with
    | Some m -> Printf.sprintf "r%d %s" r m :: acc
    | None -> acc

  (* Apply one instruction's transitions.  Violations are returned and
     the frame is left in the best-effort post-state, so a checker can
     keep going and report everything at once. *)
  let step fr (i : instr) : string list =
    let errs = ref [] in
    let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
    let read r = errs := List.rev_append (read fr r []) !errs in
    let write ~owned r =
      (match fr.regs.(r) with
      | Owned -> err "r%d overwritten while still owning a value" r
      | Conflict -> err "r%d overwritten while it may still own a value" r
      | Unborn | Borrowed | Dead | Maybe_borrowed -> ());
      fr.regs.(r) <- (if owned then Owned else Borrowed)
    in
    let consume r =
      read r;
      fr.regs.(r) <- Dead
    in
    let free r =
      (match fr.regs.(r) with
      | Owned | Borrowed | Maybe_borrowed -> ()
      | Unborn -> err "r%d freed before being written" r
      | Dead -> err "r%d freed twice (or freed after being consumed)" r
      | Conflict -> err "r%d freed in conflicting ownership states" r);
      fr.regs.(r) <- Dead
    in
    let use_var key =
      if SS.mem key fr.killed then
        err "variable %s used after its liveness kill" key
    in
    let revive key = fr.killed <- SS.remove key fr.killed in
    (match i with
    | ILoad (r, key) ->
      use_var key;
      write ~owned:false r
    | IStore (key, r) ->
      consume r;
      revive key
    | IStoreUnion (key, r) | IStoreInter (key, r) | IStoreDiff (key, r) ->
      (* reads the variable's current value, then stores *)
      use_var key;
      consume r;
      revive key
    | IConst (r, _, _) | ILiteral (r, _, _) -> write ~owned:true r
    | IUnion (d, a, b) | IInter (d, a, b) | IDiff (d, a, b) ->
      read a;
      read b;
      write ~owned:true d
    | IProject (d, s, _) | IRename (d, s, _) | IReplace (d, s, _) ->
      read s;
      write ~owned:true d
    | ICopy (d, s, _, _, _) ->
      read s;
      write ~owned:true d
    | IJoin (d, a, _, b, _) | ICompose (d, a, _, b, _) ->
      read a;
      read b;
      write ~owned:true d
    | ICall (dest, _, args) ->
      List.iter
        (function Carg_reg r -> consume r | Carg_obj _ -> ())
        args;
      (match dest with Some d -> write ~owned:true d | None -> ())
    | IFree r -> free r
    | IKill key -> fr.killed <- SS.add key fr.killed
    | IPrint r -> read r);
    List.rev !errs

  (* a relational comparison reads its operands (the interpreter frees
     them afterwards with explicit IFree transitions) *)
  let compare_reads fr r1 r2 : string list =
    let acc = read fr r1 [] in
    let acc = match r2 with Some r -> read fr r acc | None -> acc in
    List.rev acc

  let consume_return fr r : string list =
    let acc = read fr r [] in
    fr.regs.(r) <- Dead;
    List.rev acc

  (* owned values reaching method exit are leaks: the runtime sweep
     would silently release them, hiding a Lower bug *)
  let leaks fr : string list =
    let out = ref [] in
    Array.iteri
      (fun i st ->
        match st with
        | Owned ->
          out := Printf.sprintf "r%d still owned at method exit (leak)" i :: !out
        | Conflict ->
          out :=
            Printf.sprintf "r%d owned on some paths at method exit (leak)" i
            :: !out
        | Unborn | Borrowed | Dead | Maybe_borrowed -> ())
      fr.regs;
    List.rev !out
end
