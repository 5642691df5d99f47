type compiled = Lower.compiled = {
  tprog : Tast.tprogram;
  graph : Constraints.t;
  assignment : Encode.assignment;
  constraint_stats : Constraints.stats;
  weighted_stats : Encode.weighted_stats option;
}

type error = { message : string; pos : Ast.pos option; phase : string }

let error_to_string e =
  match e.pos with
  | Some p -> Format.asprintf "%s error at %a: %s" e.phase Ast.pp_pos p e.message
  | None -> Printf.sprintf "%s error: %s" e.phase e.message

let compile ?max_paths_per_class ?weight sources =
  try
    let decls =
      List.concat_map
        (fun (file, src) -> Parser.parse_program ~file src)
        sources
    in
    let tprog = Typecheck.check decls in
    let graph = Constraints.build tprog in
    (* [weight] receives the typed program and returns an eid-keyed
       weight (callers plug in [Jedd_cost.Freq]; this module stays
       ignorant of the cost library) *)
    let assignment, weighted_stats =
      match weight with
      | None -> (Encode.solve ?max_paths_per_class tprog graph, None)
      | Some mk ->
        let asg, ws =
          Encode.solve_weighted ?max_paths_per_class ~weight:(mk tprog)
            tprog graph
        in
        (asg, Some ws)
    in
    Ok
      {
        tprog;
        graph;
        assignment;
        constraint_stats = Constraints.stats tprog graph;
        weighted_stats;
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

let compile_exn ?max_paths_per_class ?weight ~file src =
  match compile ?max_paths_per_class ?weight [ (file, src) ] with
  | Ok c -> c
  | Error e -> failwith (error_to_string e)

let instantiate ?node_capacity ?node_limit ?backend:(_ : [ `Incore ] option)
    c =
  Interp.instantiate ?node_capacity ?node_limit c
