(* jeddc: the Jedd-to-Java translator CLI (Figure 1).

   Usage:
     jeddc FILE.jedd...                 check + assign physical domains
     jeddc -o OUT.java FILE.jedd...    also write the generated Java
     jeddc --stats FILE.jedd...        print Table 1-style statistics
     jeddc --dimacs OUT.cnf FILE...    also write the SAT instance (DIMACS) *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --domain-report=json: machine-readable dump of the constraint-graph
   statistics, the computed widths, the weighted-assignment outcome (if
   any), and every candidate replace site with its static weight. *)
let domain_report_json (compiled : Jedd_lang.Driver.compiled) =
  let module D = Jedd_lang.Driver in
  let module C = Jedd_lang.Constraints in
  let module E = Jedd_lang.Encode in
  let js = Jedd_lint.Diag.json_string in
  let st = compiled.D.constraint_stats in
  let sat = compiled.D.assignment.E.stats in
  let freq = Jedd_cost.Freq.analyze compiled.D.tprog in
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  add "{\n";
  add
    (Printf.sprintf
       "  \"constraints\": { \"rel_exprs\": %d, \"attrs\": %d, \"physdoms\": \
        %d, \"conflict\": %d, \"equality\": %d, \"assignment\": %d },\n"
       st.C.n_rel_exprs st.C.n_attrs st.C.n_physdoms st.C.n_conflict
       st.C.n_equality st.C.n_assignment);
  add
    (Printf.sprintf
       "  \"sat\": { \"vars\": %d, \"clauses\": %d, \"literals\": %d, \
        \"encode_seconds\": %.4f, \"solve_seconds\": %.4f },\n"
       sat.E.sat_vars sat.E.sat_clauses sat.E.sat_literals
       sat.E.encode_seconds sat.E.solve_seconds);
  (match compiled.D.weighted_stats with
  | Some w ->
    add
      (Printf.sprintf
         "  \"weighted\": { \"sites\": %d, \"kept\": %d, \"broken\": %d, \
          \"cost\": %d, \"solves\": %d },\n"
         w.E.w_sites w.E.w_kept w.E.w_broken w.E.w_cost w.E.w_solves)
  | None -> add "  \"weighted\": null,\n");
  add "  \"widths\": { ";
  add
    (String.concat ", "
       (List.map
          (fun (name, bits) -> Printf.sprintf "%s: %d" (js name) bits)
          (List.sort compare compiled.D.assignment.E.widths)));
  add " },\n";
  (* one entry per candidate replace site (dummy replace wrapper) *)
  let wrap_eids =
    Array.fold_left
      (fun acc (n : C.node) ->
        match n.C.site with C.S_wrap e -> e :: acc | _ -> acc)
      []
      compiled.D.graph.C.nodes
    |> List.sort_uniq compare
  in
  add "  \"sites\": [\n";
  add
    (String.concat ",\n"
       (List.map
          (fun eid ->
            let p = compiled.D.graph.C.site_pos (C.S_wrap eid) in
            Printf.sprintf
              "    { \"eid\": %d, \"kind\": %s, \"file\": %s, \"line\": %d, \
               \"col\": %d, \"weight\": %d, \"depth\": %d, \"fixpoint\": %b }"
              eid
              (js (compiled.D.graph.C.site_kind (C.S_expr eid)))
              (js p.Jedd_lang.Ast.file)
              p.Jedd_lang.Ast.line p.Jedd_lang.Ast.col
              (Jedd_cost.Freq.weight freq eid)
              (Jedd_cost.Freq.depth freq eid)
              (Jedd_cost.Freq.in_fixpoint freq eid))
          wrap_eids));
  if wrap_eids <> [] then add "\n";
  add "  ]\n";
  add "}";
  Buffer.contents buf

(* --dimacs OUT: the instance is written before solving, so it is there
   to inspect even when the assignment fails.  Front-end errors are left
   to Driver.compile, which reports them. *)
let write_dimacs path sources =
  let module L = Jedd_lang in
  match
    let decls =
      List.concat_map
        (fun (file, src) -> L.Parser.parse_program ~file src)
        sources
    in
    let tprog = L.Typecheck.check decls in
    L.Encode.dimacs tprog (L.Constraints.build tprog)
  with
  | exception
      ( L.Lexer.Lex_error _ | L.Parser.Parse_error _ | L.Typecheck.Error _
      | L.Encode.Unreachable_attribute _ ) ->
    ()
  | problem -> (
    let clauses = problem.Jedd_sat.Dimacs.clauses in
    let literals = List.fold_left (fun n c -> n + List.length c) 0 clauses in
    try
      let oc = open_out_bin path in
      Printf.fprintf oc "c jeddc physical-domain assignment instance\n";
      Printf.fprintf oc "c vars=%d clauses=%d literals=%d\n"
        problem.Jedd_sat.Dimacs.nvars (List.length clauses) literals;
      output_string oc (Jedd_sat.Dimacs.to_string problem);
      close_out oc;
      Printf.printf "jeddc: SAT instance written to %s\n" path
    with Sys_error msg ->
      Printf.eprintf "jeddc: cannot write the SAT instance to %s: %s\n" path
        msg;
      exit 1)

let run files output stats dimacs dump_ir lint optimize domain_report =
  if files = [] then begin
    prerr_endline "jeddc: no input files";
    exit 2
  end;
  let sources = List.map (fun f -> (f, read_file f)) files in
  if dimacs <> "" then write_dimacs dimacs sources;
  let weight =
    if optimize then
      Some
        (fun tprog ->
          let f = Jedd_cost.Freq.analyze tprog in
          Jedd_cost.Freq.weight f)
    else None
  in
  match Jedd_lang.Driver.compile ?weight sources with
  | Error e ->
    prerr_endline (Jedd_lang.Driver.error_to_string e);
    exit 1
  | Ok compiled ->
    (match domain_report with
    | Some "json" ->
      print_endline (domain_report_json compiled);
      exit 0
    | Some other ->
      Printf.eprintf "jeddc: unknown domain-report format %s (json)\n" other;
      exit 2
    | None -> ());
    (match lint with
    | Some format ->
      (* lint mode: diagnostics only, CI-friendly exit code *)
      let report = Jedd_lint.Driver.lint compiled in
      (match format with
      | "json" -> print_endline (Jedd_lint.Driver.to_json report)
      | "text" -> print_endline (Jedd_lint.Driver.to_text report)
      | other ->
        Printf.eprintf "jeddc: unknown lint format %s (text|json)\n" other;
        exit 2);
      exit (Jedd_lint.Driver.exit_code report)
    | None -> ());
    let st = compiled.Jedd_lang.Driver.constraint_stats in
    let sat = compiled.Jedd_lang.Driver.assignment.Jedd_lang.Encode.stats in
    Printf.printf
      "jeddc: physical domain assignment complete (encode %.4f s, CDCL %.4f \
       s)\n"
      sat.Jedd_lang.Encode.encode_seconds sat.Jedd_lang.Encode.solve_seconds;
    (match compiled.Jedd_lang.Driver.weighted_stats with
    | Some w ->
      Printf.printf
        "jeddc: weighted objective kept %d of %d replace sites (broken cost \
         %d, %d SAT solves)\n"
        w.Jedd_lang.Encode.w_kept w.Jedd_lang.Encode.w_sites
        w.Jedd_lang.Encode.w_cost w.Jedd_lang.Encode.w_solves
    | None -> ());
    if stats then begin
      Printf.printf "  relational expressions : %d\n"
        st.Jedd_lang.Constraints.n_rel_exprs;
      Printf.printf "  attributes             : %d\n"
        st.Jedd_lang.Constraints.n_attrs;
      Printf.printf "  physical domains       : %d\n"
        st.Jedd_lang.Constraints.n_physdoms;
      Printf.printf "  conflict constraints   : %d\n"
        st.Jedd_lang.Constraints.n_conflict;
      Printf.printf "  equality constraints   : %d\n"
        st.Jedd_lang.Constraints.n_equality;
      Printf.printf "  assignment constraints : %d\n"
        st.Jedd_lang.Constraints.n_assignment;
      Printf.printf "  SAT variables          : %d\n" sat.Jedd_lang.Encode.sat_vars;
      Printf.printf "  SAT clauses            : %d\n"
        sat.Jedd_lang.Encode.sat_clauses;
      Printf.printf "  SAT literals           : %d\n"
        sat.Jedd_lang.Encode.sat_literals
    end;
    if output <> "" then begin
      let oc = open_out output in
      output_string oc (Jedd_lang.Emit_java.emit_program compiled);
      close_out oc;
      Printf.printf "jeddc: generated Java written to %s\n" output
    end;
    if dump_ir then begin
      let methods = Jedd_lang.Lower.lower_program compiled in
      List.iter
        (fun q ->
          let m = Hashtbl.find methods q in
          Format.printf "%a@." Jedd_lang.Ir.pp_method m)
        compiled.Jedd_lang.Driver.tprog.Jedd_lang.Tast.method_order
    end

let files_arg =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc:"Jedd source files")

let output_arg =
  Arg.(
    value & opt string ""
    & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Write generated Java to $(docv)")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print Table 1-style statistics")

let dimacs_arg =
  Arg.(
    value & opt string ""
    & info [ "dimacs" ] ~docv:"OUT"
        ~doc:
          "Write the physical-domain-assignment SAT instance (clause types \
           1-7, in clause-id order) to $(docv) in DIMACS CNF format, before \
           solving.  Exits 1 if $(docv) cannot be written.")

let dump_ir_arg =
  Arg.(
    value & flag
    & info [ "dump-ir" ] ~doc:"Print the lowered relational IR (§3.2)")

let lint_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "lint" ] ~docv:"FORMAT"
        ~doc:
          "Run the jeddlint checkers instead of generating code and print \
           diagnostics as $(docv) (text or json).  Exits 2 on errors, 1 on \
           warnings, 0 otherwise.")

let optimize_arg =
  Arg.(
    value & flag
    & info [ "optimize-domains" ]
        ~doc:
          "Solve the physical-domain assignment with the weighted objective: \
           minimise the summed static execution-weight (interprocedural \
           frequency analysis, loop nesting, fixed-point loops) of the \
           replace instructions the assignment emits, instead of accepting \
           an arbitrary satisfying model.  Analysis results are unchanged; \
           only where the copies happen moves.")

let domain_report_arg =
  Arg.(
    value
    & opt ~vopt:(Some "json") (some string) None
    & info [ "domain-report" ] ~docv:"FORMAT"
        ~doc:
          "Print a machine-readable report of the physical-domain \
           assignment (constraint-graph statistics, SAT instance sizes, \
           computed widths, and every candidate replace site with its \
           static weight, loop depth and fixed-point flag) and exit.  Only \
           $(b,json) is supported.")

let cmd =
  Cmd.v
    (Cmd.info "jeddc" ~version:Jedd_relation.Version.banner
       ~doc:"Jedd to Java translator (PLDI 2004 reproduction)")
    Term.(
      const run $ files_arg $ output_arg $ stats_arg $ dimacs_arg $ dump_ir_arg
      $ lint_arg $ optimize_arg $ domain_report_arg)

let () = exit (Cmd.eval cmd)
