open Tast
open Ir
module SS = Set.Make (String)

type ctx = {
  compiled : Lower.compiled;
  buf : Buffer.t;
  mutable indent : int;
  pending : (reg, string) Hashtbl.t;
      (* the Java expression each written but not yet read register holds *)
  mutable declared : SS.t;  (* locals whose container is in scope *)
}

let layout_string l = Format.asprintf "%a" pp_layout l

(* a container's layout, as the string its constructor takes *)
let var_layout ctx key = layout_string (Lower.var_layout ctx.compiled key)

let line ctx fmt =
  Printf.ksprintf
    (fun s ->
      Buffer.add_string ctx.buf (String.make (ctx.indent * 4) ' ');
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let var_java key = String.map (fun c -> if c = '.' then '_' else c) key

let jedd name args = Printf.sprintf "Jedd.v().%s(%s)" name (String.concat ", " args)
let attr a = a ^ ".v()"
let attr_array l = "new Attribute[] { " ^ String.concat ", " (List.map attr l) ^ " }"

let operand o = Format.asprintf "%a" pp_operand o

(* A register is read by exactly one instruction (the register
   discipline), so its defining expression is printed inline at that
   read, rebuilding the source's nesting. *)
let read ctx r =
  match Hashtbl.find_opt ctx.pending r with
  | Some e ->
    Hashtbl.remove ctx.pending r;
    e
  | None -> Printf.sprintf "r%d" r

let store ctx key meth rhs =
  let v = Hashtbl.find ctx.compiled.tprog.vars key in
  if v.v_kind = Vlocal && not (SS.mem key ctx.declared) then begin
    ctx.declared <- SS.add key ctx.declared;
    line ctx "final RelationContainer %s = new RelationContainer(\"%s\");"
      (var_java key) (var_layout ctx key)
  end;
  line ctx "%s.%s(%s);" (var_java key) meth rhs

let instr ctx (i : instr) =
  let def d e = Hashtbl.replace ctx.pending d e in
  match i with
  | ILoad (d, key) -> def d (var_java key ^ ".get()")
  | IStore (key, r) -> store ctx key "eq" (read ctx r)
  | IStoreUnion (key, r) -> store ctx key "eqUnion" (read ctx r)
  | IStoreInter (key, r) -> store ctx key "eqIntersect" (read ctx r)
  | IStoreDiff (key, r) -> store ctx key "eqMinus" (read ctx r)
  | IConst (d, full, _) -> def d (jedd (if full then "trueBDD" else "falseBDD") [])
  | ILiteral (d, layout, objs) ->
    def d
      (Printf.sprintf "Jedd.v().literal(new Object[] { %s })"
         (String.concat ", "
            (List.map2
               (fun o (a, p) -> operand o ^ " => " ^ a ^ ":" ^ p)
               objs layout)))
  | IUnion (d, a, b) | IInter (d, a, b) | IDiff (d, a, b) ->
    let name =
      match i with IUnion _ -> "union" | IInter _ -> "intersect" | _ -> "minus"
    in
    let a = read ctx a in
    def d (jedd name [ a; read ctx b ])
  | IProject (d, s, attrs) -> def d (jedd "project" (read ctx s :: List.map attr attrs))
  | IRename (d, s, pairs) ->
    def d
      (jedd "rename"
         (read ctx s :: List.concat_map (fun (a, b) -> [ attr a; attr b ]) pairs))
  | ICopy (d, s, a, c, phys) -> def d (jedd "copy" [ read ctx s; attr a; attr c; phys ])
  | IJoin (d, a, la, b, lb) | ICompose (d, a, la, b, lb) ->
    let name = match i with IJoin _ -> "join" | _ -> "compose" in
    let a = read ctx a in
    def d (jedd name [ a; attr_array la; read ctx b; attr_array lb ])
  | IReplace (d, s, layout) ->
    (* a replace the assignment stage kept (§3.3.2) *)
    def d (jedd "replace" [ read ctx s; "\"" ^ layout_string layout ^ "\"" ])
  | ICall (dest, q, args) -> (
    let args =
      List.map (function Carg_reg r -> read ctx r | Carg_obj o -> operand o) args
    in
    let e = Printf.sprintf "%s(%s)" (var_java q) (String.concat ", " args) in
    match dest with Some d -> def d e | None -> line ctx "%s;" e)
  | IFree r ->
    (* a value computed for its own sake (an expression statement) *)
    if Hashtbl.mem ctx.pending r then line ctx "%s;" (read ctx r)
  | IKill key -> line ctx "%s.kill();" (var_java key)
  | IPrint r -> line ctx "System.out.println(%s.toString());" (read ctx r)

let rec cond ctx (c : ccond) : string =
  match c with
  | Cbool b -> string_of_bool b
  | Cnot c -> "!(" ^ cond ctx c ^ ")"
  | Cand (a, b) | Cor (a, b) ->
    let a = cond ctx a in
    let op = match c with Cand _ -> " && " | _ -> " || " in
    a ^ op ^ cond ctx b
  | Ceq (code, r, rhs) | Cne (code, r, rhs) ->
    List.iter (instr ctx) code;
    let l = read ctx r in
    let r =
      match rhs with
      | Rhs_empty -> jedd "falseBDD" []
      | Rhs_full -> jedd "trueBDD" []
      | Rhs_reg (code2, r2) ->
        List.iter (instr ctx) code2;
        read ctx r2
    in
    (match c with Ceq _ -> "" | _ -> "!") ^ jedd "equals" [ l; r ]

let rec stmt ctx (s : cstmt) =
  match s with
  | CExec is -> List.iter (instr ctx) is
  | CBlock b ->
    line ctx "{";
    block ctx b;
    line ctx "}"
  | CIf (c, th, el) ->
    line ctx "if (%s) {" (cond ctx c);
    block ctx th;
    if el <> [] then begin
      line ctx "} else {";
      block ctx el
    end;
    line ctx "}"
  | CWhile (c, body) ->
    line ctx "while (%s) {" (cond ctx c);
    block ctx body;
    line ctx "}"
  | CDoWhile (body, c) ->
    line ctx "do {";
    block ctx body;
    line ctx "} while (%s);" (cond ctx c)
  | CReturn (code, r) -> (
    List.iter (instr ctx) code;
    match r with
    | Some r -> line ctx "return %s;" (read ctx r)
    | None -> line ctx "return;")

and block ctx b =
  let declared = ctx.declared in
  ctx.indent <- ctx.indent + 1;
  List.iter (stmt ctx) b;
  ctx.indent <- ctx.indent - 1;
  ctx.declared <- declared

let emit_method_into ctx (m : cmethod) =
  let q = m.c_qualified in
  let params =
    String.concat ", "
      (List.map
         (fun (p : tparam) ->
           match p with
           | Tparam_rel key -> "final RelationContainer " ^ var_java key
           | Tparam_obj (name, d) -> "final " ^ d.d_name ^ " " ^ name)
         m.c_params)
  in
  let ret =
    match (Hashtbl.find ctx.compiled.tprog.methods q).tm_return with
    | None -> "void"
    | Some _ -> "RelationContainer"
  in
  line ctx "public %s %s(%s) {" ret
    (var_java
       (match String.rindex_opt q '.' with
       | Some i -> String.sub q (i + 1) (String.length q - i - 1)
       | None -> q))
    params;
  Hashtbl.reset ctx.pending;
  ctx.declared <- SS.empty;
  block ctx m.c_body;
  line ctx "}"

let create compiled size =
  {
    compiled;
    buf = Buffer.create size;
    indent = 0;
    pending = Hashtbl.create 16;
    declared = SS.empty;
  }

let emit_method compiled q =
  let ctx = create compiled 2048 in
  emit_method_into ctx (Lower.lower_method compiled q);
  Buffer.contents ctx.buf

let emit_program compiled =
  let ctx = create compiled 8192 in
  let methods = Lower.lower_program compiled in
  line ctx "// Generated by jeddc (OCaml reproduction). Do not edit.";
  line ctx "import jedd.internal.Jedd;";
  line ctx "import jedd.internal.RelationContainer;";
  line ctx "import jedd.Attribute;";
  line ctx "";
  List.iter
    (fun cls ->
      let prefix = cls ^ "." in
      let in_class key = String.starts_with ~prefix key in
      line ctx "public class %s {" cls;
      ctx.indent <- ctx.indent + 1;
      (* fields *)
      Hashtbl.iter
        (fun key (v : var_info) ->
          if v.v_kind = Vfield && in_class key then
            line ctx
              "private final RelationContainer %s = new RelationContainer(\"%s\");"
              (var_java key) (var_layout ctx key))
        compiled.tprog.vars;
      line ctx "";
      (* methods *)
      List.iter
        (fun q ->
          if in_class q && not (String.contains q '<') then begin
            emit_method_into ctx (Hashtbl.find methods q);
            line ctx ""
          end)
        compiled.tprog.method_order;
      ctx.indent <- ctx.indent - 1;
      line ctx "}";
      line ctx "")
    compiled.tprog.classes;
  Buffer.contents ctx.buf
