type compiled = Lower.compiled = {
  tprog : Tast.tprogram;
  graph : Constraints.t;
  assignment : Encode.assignment;
  constraint_stats : Constraints.stats;
  weighted_stats : Lower.weighted_stats option;
}

type error = { message : string; pos : Ast.pos option; phase : string }

let error_to_string e =
  match e.pos with
  | Some p -> Format.asprintf "%s error at %a: %s" e.phase Ast.pp_pos p e.message
  | None -> Printf.sprintf "%s error: %s" e.phase e.message

let compile ?max_paths_per_class sources =
  try
    let decls =
      List.concat_map
        (fun (file, src) -> Parser.parse_program ~file src)
        sources
    in
    let tprog = Typecheck.check decls in
    let graph = Constraints.build tprog in
    let assignment = Encode.solve ?max_paths_per_class tprog graph in
    Ok
      {
        tprog;
        graph;
        assignment;
        constraint_stats = Constraints.stats tprog graph;
        weighted_stats = None;
      }
  with
  | Lexer.Lex_error (msg, pos) -> Error { message = msg; pos = Some pos; phase = "parse" }
  | Parser.Parse_error (msg, pos) ->
    Error { message = msg; pos = Some pos; phase = "parse" }
  | Typecheck.Error (msg, pos) ->
    Error { message = msg; pos = Some pos; phase = "typecheck" }
  | Encode.Unreachable_attribute msgs ->
    Error { message = String.concat "\n" msgs; pos = None; phase = "assignment" }
  | Encode.Assignment_conflict msg ->
    Error { message = msg; pos = None; phase = "assignment" }

let compile_exn ?max_paths_per_class ~file src =
  match compile ?max_paths_per_class [ (file, src) ] with
  | Ok c -> c
  | Error e -> failwith (error_to_string e)

let instantiate ?node_capacity ?node_limit ?backend:(_ : [ `Incore ] option)
    c =
  Interp.instantiate ?node_capacity ?node_limit c
