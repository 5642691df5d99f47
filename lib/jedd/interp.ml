open Tast
open Ir
module U = Jedd_relation.Universe
module Dom = Jedd_relation.Domain
module Phys = Jedd_relation.Physdom
module Attr = Jedd_relation.Attribute
module Schema = Jedd_relation.Schema
module R = Jedd_relation.Relation

exception Runtime_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

type t = {
  compiled : Lower.compiled;
  u : U.t;
  domains : (string, Dom.t) Hashtbl.t;
  attrs : (string, Attr.t) Hashtbl.t;
  physdoms : (string, Phys.t) Hashtbl.t;
  fields : (var_key, R.t ref) Hashtbl.t;
  methods : (string, cmethod) Hashtbl.t;  (* [Lower]'s code, by qualified name *)
  labels : (string, string array) Hashtbl.t;
      (* per method: register -> "file:line,col" of the expression it
         holds, the profiler label of the operation that writes it *)
  check : bool;
      (* shadow the register-discipline state machine on every executed
         instruction (JEDD_CHECK_IR=1); shares [Ir.Discipline] with the
         static verifier so runtime and prover enforce the same rules *)
  mutable print_hook : string -> unit;
}

type value = VRel of R.t | VObj of int

let universe t = t.u
let methods t = t.methods

let domain t name =
  match Hashtbl.find_opt t.domains name with
  | Some d -> d
  | None -> fail "unknown domain %s" name

let attribute t name =
  match Hashtbl.find_opt t.attrs name with
  | Some a -> a
  | None -> fail "unknown attribute %s" name

let physdom t name =
  match Hashtbl.find_opt t.physdoms name with
  | Some p -> p
  | None -> fail "unknown physical domain %s" name

let schema_of_layout t (layout : layout) =
  Schema.make
    (List.map
       (fun (attr_name, phys_name) ->
         { Schema.attr = attribute t attr_name; phys = physdom t phys_name })
       layout)

let schema_of_var t key =
  if Hashtbl.mem t.compiled.tprog.vars key then
    schema_of_layout t (Lower.var_layout t.compiled key)
  else fail "unknown variable %s" key

let set_print_hook t hook = t.print_hook <- hook

let check_from_env () =
  match Sys.getenv_opt "JEDD_CHECK_IR" with
  | Some ("" | "0") | None -> false
  | Some _ -> true

let create ?(node_capacity = 1 lsl 16) ?node_limit (c : Lower.compiled) : t =
  let prog = c.Lower.tprog in
  let u = U.create ~node_capacity ?node_limit () in
  let physdoms = Hashtbl.create 16 in
  List.iter
    (fun (p : phys_info) ->
      let bits =
        match List.assoc_opt p.p_name c.assignment.Encode.widths with
        | Some w -> w
        | None -> max 1 (Option.value p.p_min_bits ~default:1)
      in
      Hashtbl.add physdoms p.p_name (Phys.declare u ~name:p.p_name ~bits))
    prog.physdoms;
  let domains = Hashtbl.create 16 in
  List.iter
    (fun (d : domain_info) ->
      Hashtbl.add domains d.d_name (Dom.declare ~name:d.d_name ~size:d.d_size ()))
    prog.domains;
  let attrs = Hashtbl.create 16 in
  List.iter
    (fun (a : attr_info) ->
      Hashtbl.add attrs a.a_name
        (Attr.declare ~name:a.a_name ~domain:(Hashtbl.find domains a.a_domain.d_name)))
    prog.attrs;
  let methods, prov = Lower.lower_program_ex c in
  let labels = Hashtbl.create 16 in
  Hashtbl.iter
    (fun q (mp : Lower.method_provenance) ->
      let a = Array.make (Hashtbl.find methods q).c_nregs "" in
      Hashtbl.iter
        (fun r p -> a.(r) <- Format.asprintf "%a" Ast.pp_pos p)
        mp.mp_reg_pos;
      Hashtbl.replace labels q a)
    prov.pp_methods;
  {
    compiled = c;
    u;
    domains;
    attrs;
    physdoms;
    fields = Hashtbl.create 32;
    methods;
    labels;
    check = check_from_env ();
    print_hook = print_string;
  }

(* -- execution: a register machine over the lowered code ---------------------- *)

type frame = {
  meth : string;  (* qualified name, for error messages *)
  regs : R.t option array;
  owned : bool array;
  labels : string array;
  locals : (var_key, R.t ref) Hashtbl.t;
  objs : (string, int) Hashtbl.t;
  disc : Discipline.frame option;  (* shadow state when checking *)
}

exception Return_value of R.t option

let label frame r = if r < Array.length frame.labels then frame.labels.(r) else ""

let disc_fail frame what errs =
  fail "JEDD_CHECK_IR: %s in %s: %s" what frame.meth (String.concat "; " errs)

let reg_value frame r =
  match frame.regs.(r) with
  | Some v -> v
  | None -> fail "%s: register r%d read before being written" frame.meth r

(* consume a register: the caller takes the value; ownership moves out
   (a borrowed register yields a dup so the consumer can free safely) *)
let consume_reg frame r =
  let v = reg_value frame r in
  let owned = frame.owned.(r) in
  frame.regs.(r) <- None;
  frame.owned.(r) <- false;
  if owned then v else R.dup v

let set_reg frame r v =
  frame.regs.(r) <- Some v;
  frame.owned.(r) <- true

let resolve_operand frame = function
  | Op_int n -> n
  | Op_objparam name -> (
    match Hashtbl.find_opt frame.objs name with
    | Some v -> v
    | None -> fail "%s: object parameter %s unbound" frame.meth name)

let slot_of t frame key =
  match Hashtbl.find_opt frame.locals key with
  | Some slot -> Some slot
  | None -> Hashtbl.find_opt t.fields key

let read_var t frame key =
  match slot_of t frame key with
  | Some slot -> !slot
  | None -> fail "%s: variable %s has no storage" frame.meth key

(* Take ownership of a value coerced to a variable's layout (declared
   attribute order included). *)
let own_at ?label t key v =
  let c = R.coerce ?label v (schema_of_var t key) in
  if c == v then v
  else begin
    R.release v;
    c
  end

(* [value] is owned by this function and is handed to the storage; §4.2
   case 2: the overwritten BDD's count drops immediately *)
let store_var t frame ~label key value =
  let value = own_at ~label t key value in
  match slot_of t frame key with
  | Some slot ->
    let old = !slot in
    slot := value;
    R.release old
  | None ->
    (* first store to a local: this is its declaration *)
    Hashtbl.replace frame.locals key (ref value)

let set_op = function
  | IUnion _ | IStoreUnion _ -> R.union
  | IInter _ | IStoreInter _ -> R.inter
  | _ -> R.diff

let rec exec_instr t frame (i : instr) : unit =
  (match frame.disc with
  | Some d -> (
    match Discipline.step d i with
    | [] -> ()
    | errs ->
      disc_fail frame
        (Format.asprintf "discipline violation at [%a]" pp_instr i)
        errs)
  | None -> ());
  let attrs = List.map (attribute t) in
  match i with
  | ILoad (r, key) ->
    frame.regs.(r) <- Some (read_var t frame key);
    frame.owned.(r) <- false
  | IStore (key, r) ->
    store_var t frame ~label:(label frame r) key (consume_reg frame r)
  | IStoreUnion (key, r) | IStoreInter (key, r) | IStoreDiff (key, r) ->
    let rhs = consume_reg frame r in
    let label = label frame r in
    let result = set_op i ~label (read_var t frame key) rhs in
    R.release rhs;
    store_var t frame ~label key result
  | IConst (r, full, layout) ->
    let sch = schema_of_layout t layout in
    set_reg frame r (if full then R.full t.u sch else R.empty t.u sch)
  | ILiteral (r, layout, operands) ->
    set_reg frame r
      (R.tuple t.u (schema_of_layout t layout)
         (List.map (resolve_operand frame) operands))
  | IUnion (d, a, b) | IInter (d, a, b) | IDiff (d, a, b) ->
    set_reg frame d
      (set_op i ~label:(label frame d) (reg_value frame a) (reg_value frame b))
  | IProject (d, s, names) ->
    set_reg frame d
      (R.project_away ~label:(label frame d) (reg_value frame s) (attrs names))
  | IRename (d, s, pairs) ->
    set_reg frame d
      (R.rename ~label:(label frame d) (reg_value frame s)
         (List.map (fun (a, b) -> (attribute t a, attribute t b)) pairs))
  | ICopy (d, s, a, c, phys) ->
    set_reg frame d
      (R.copy ~label:(label frame d) ~phys:(physdom t phys) (reg_value frame s)
         (attribute t a) ~as_:(attribute t c))
  | IJoin (d, a, la, b, lb) ->
    set_reg frame d
      (R.join ~label:(label frame d) (reg_value frame a) (attrs la)
         (reg_value frame b) (attrs lb))
  | ICompose (d, a, la, b, lb) ->
    set_reg frame d
      (R.compose ~label:(label frame d) (reg_value frame a) (attrs la)
         (reg_value frame b) (attrs lb))
  | IReplace (d, s, layout) ->
    let v = reg_value frame s in
    let c = R.coerce ~label:(label frame d) v (schema_of_layout t layout) in
    set_reg frame d (if c == v then R.dup v else c)
  | ICall (dest, q, args) -> (
    let values =
      List.map
        (function
          | Carg_reg r -> VRel (consume_reg frame r)
          | Carg_obj o -> VObj (resolve_operand frame o))
        args
    in
    match (call t q values, dest) with
    | Some r, Some d -> set_reg frame d r
    | Some r, None -> R.release r
    | None, Some _ -> fail "%s: void method %s used for its value" frame.meth q
    | None, None -> ())
  | IFree r ->
    (match frame.regs.(r) with
    | Some v when frame.owned.(r) -> R.release v
    | _ -> ());
    frame.regs.(r) <- None;
    frame.owned.(r) <- false
  | IKill key -> (
    match Hashtbl.find_opt frame.locals key with
    | Some slot -> R.release !slot
    | None -> ())
  | IPrint r -> t.print_hook (R.to_string (reg_value frame r))

and eval_cond t frame (c : ccond) : bool =
  match c with
  | Cbool b -> b
  | Cnot c -> not (eval_cond t frame c)
  | Cand (a, b) -> eval_cond t frame a && eval_cond t frame b
  | Cor (a, b) -> eval_cond t frame a || eval_cond t frame b
  | Ceq (code, r, rhs) | Cne (code, r, rhs) ->
    List.iter (exec_instr t frame) code;
    let check_cmp r2 =
      match frame.disc with
      | Some d -> (
        match Discipline.compare_reads d r r2 with
        | [] -> ()
        | errs -> disc_fail frame "discipline violation at comparison" errs)
      | None -> ()
    in
    let result =
      match rhs with
      | Rhs_empty ->
        check_cmp None;
        R.is_empty (reg_value frame r)
      | Rhs_full ->
        check_cmp None;
        let v = reg_value frame r in
        let full = R.full t.u (R.schema v) in
        let e = R.equal v full in
        R.release full;
        e
      | Rhs_reg (code2, r2) ->
        List.iter (exec_instr t frame) code2;
        check_cmp (Some r2);
        let e = R.equal (reg_value frame r) (reg_value frame r2) in
        exec_instr t frame (IFree r2);
        e
    in
    exec_instr t frame (IFree r);
    (match c with Ceq _ -> result | _ -> not result)

and exec_stmt t frame (s : cstmt) : unit =
  match s with
  | CExec instrs -> List.iter (exec_instr t frame) instrs
  | CBlock stmts -> List.iter (exec_stmt t frame) stmts
  | CIf (c, th, el) ->
    if eval_cond t frame c then List.iter (exec_stmt t frame) th
    else List.iter (exec_stmt t frame) el
  | CWhile (c, body) ->
    while eval_cond t frame c do
      List.iter (exec_stmt t frame) body
    done
  | CDoWhile (body, c) ->
    let continue_loop = ref true in
    while !continue_loop do
      List.iter (exec_stmt t frame) body;
      continue_loop := eval_cond t frame c
    done
  | CReturn (code, r) ->
    List.iter (exec_instr t frame) code;
    (match (frame.disc, r) with
    | Some d, Some r -> (
      match Discipline.consume_return d r with
      | [] -> ()
      | errs -> disc_fail frame "discipline violation at return" errs)
    | _ -> ());
    raise (Return_value (Option.map (consume_reg frame) r))

and call t q (args : value list) : R.t option =
  let m =
    match Hashtbl.find_opt t.methods q with
    | Some m -> m
    | None -> fail "unknown method %s" q
  in
  if List.length args <> List.length m.c_params then
    fail "method %s expects %d arguments, got %d" q (List.length m.c_params)
      (List.length args);
  let frame =
    {
      meth = q;
      regs = Array.make (max 1 m.c_nregs) None;
      owned = Array.make (max 1 m.c_nregs) false;
      labels = Option.value (Hashtbl.find_opt t.labels q) ~default:[||];
      locals = Hashtbl.create 8;
      objs = Hashtbl.create 4;
      disc = (if t.check then Some (Discipline.init m.c_nregs) else None);
    }
  in
  List.iter2
    (fun (p : tparam) (v : value) ->
      match (p, v) with
      | Tparam_rel key, VRel r -> Hashtbl.replace frame.locals key (ref (own_at t key r))
      | Tparam_obj (name, _), VObj n -> Hashtbl.replace frame.objs name n
      | Tparam_rel key, VObj _ -> fail "method %s: relation argument expected for %s" q key
      | Tparam_obj (name, _), VRel _ ->
        fail "method %s: object argument expected for %s" q name)
    m.c_params args;
  let result =
    try
      List.iter (exec_stmt t frame) m.c_body;
      None
    with Return_value r -> r
  in
  (* §4.2 cases 3/4: locals and parameters die with the frame; stray
     owned registers are swept *)
  (match frame.disc with
  | Some d -> (
    match Discipline.leaks d with
    | [] -> ()
    | errs -> disc_fail frame "leak at method exit" errs)
  | None -> ());
  Hashtbl.iter (fun _ slot -> R.release !slot) frame.locals;
  Array.iteri
    (fun i v ->
      match v with Some v when frame.owned.(i) -> R.release v | _ -> ())
    frame.regs;
  result

(* -- host API ------------------------------------------------------------------ *)

let is_init q =
  match String.split_on_char '.' q with
  | [ _; meth ] -> String.starts_with ~prefix:"<init:" meth
  | _ -> false

let instantiate ?node_capacity ?node_limit c =
  let t = create ?node_capacity ?node_limit c in
  (* every field starts as 0B at its assigned layout (§4.2: one
     container per field), then the field initialisers run *)
  Hashtbl.iter
    (fun key (v : var_info) ->
      if v.v_kind = Vfield then
        Hashtbl.add t.fields key (ref (R.empty t.u (schema_of_var t key))))
    t.compiled.tprog.vars;
  List.iter
    (fun q -> if is_init q then ignore (call t q []))
    t.compiled.tprog.method_order;
  t

let get_field t key =
  match Hashtbl.find_opt t.fields key with
  | Some r -> !r
  | None -> fail "unknown field %s" key

let set_field t key rel =
  match Hashtbl.find_opt t.fields key with
  | Some slot ->
    let rel' =
      let c = R.coerce rel (schema_of_var t key) in
      if c == rel then R.dup rel else c
    in
    let old = !slot in
    slot := rel';
    R.release old
  | None -> fail "unknown field %s" key

(* Declaration-order registry listings for the snapshot layer: the
   program's declaration lists drive the order, the instance tables
   supply the runtime values. *)
let registries t =
  ( List.map (fun (d : domain_info) -> (d.d_name, Hashtbl.find t.domains d.d_name))
      t.compiled.tprog.domains,
    List.map (fun (a : attr_info) -> (a.a_name, Hashtbl.find t.attrs a.a_name))
      t.compiled.tprog.attrs,
    List.map (fun (p : phys_info) -> (p.p_name, Hashtbl.find t.physdoms p.p_name))
      t.compiled.tprog.physdoms )

let fields t =
  Hashtbl.fold (fun key slot acc -> (key, !slot) :: acc) t.fields []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

