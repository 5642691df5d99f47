(* jbench: the repository's benchmark.

     jbench --workload W --seed N --seconds S --trace 0|1
     jbench selftest
     jbench serve-query --snapshot FILE     (started by the query workload)
     jbench serve-edit --seed N             (started by the edit workload)

   The last line of a run's standard output is one JSON object with the
   keys correct, attempted, failed and metrics: the end-to-end metrics
   when --trace is 0, the per-layer metrics when it is 1.  See
   METHODOLOGY.md for what each workload and metric measures. *)

module Json = Jedd_server.Json

let end_to_end = [ ("setup_s", "s"); ("op_ms_p50", "ms"); ("ops_per_s", "1/s"); ("peak_rss_mb", "MB") ]

(* Every per-layer metric, with its unit.  A workload reports 0 for a
   layer it does not reach (METHODOLOGY.md has the map). *)
let per_layer =
  let ms n = (n ^ "_ms", "ms") and count n = (n, "count") in
  List.concat
    [
      List.map ms [ "lang.parse"; "lang.typecheck"; "lang.constraints"; "lang.encode"; "sat.solve"; "lang.emit" ];
      List.map count [ "sat.vars"; "sat.clauses"; "lang.replace_sites" ];
      List.map ms
        [
          "interp.instantiate"; "analyses.load"; "analyses.hierarchy"; "analyses.pointsto";
          "analyses.vcall"; "analyses.callgraph"; "analyses.sideeffect"; "analyses.results";
        ];
      List.concat_map
        (fun op -> [ ms ("relation." ^ op); count ("relation." ^ op ^ "_count") ])
        Pipeline.relation_ops;
      [
        count "bdd.cache_lookups"; ("bdd.cache_hit_ratio", "ratio"); count "bdd.cache_evictions";
        count "bdd.gc_count"; ms "bdd.gc"; count "bdd.grow_count"; count "bdd.peak_nodes";
      ];
      [ ("store.snapshot_bytes", "bytes"); ms "store.save"; ms "store.load" ];
      [
        ("server.cache_hit_ratio", "ratio"); ("server.eval_us_hit", "us"); ("server.eval_us_miss", "us");
        ("server.render_us", "us"); ("server.transport_us_p50", "us");
      ];
      List.map ms ("incr.create" :: "incr.solve" :: List.map (( ^ ) "incr.") Workloads.stage_names);
      List.map count
        [
          "incr.mode_incremental"; "incr.mode_partial"; "incr.mode_rebuild"; "incr.mode_recompile";
          "incr.delta_tuples"; "incr.iterations";
        ];
      [ ms "serve.swap"; count "serve.evicted_entries" ];
      [ ms "host.calib"; ("trace.overhead_pct", "%"); ("trace.coverage_pct", "%"); count "audit.inexact_counts" ];
    ]

let num v = if Float.is_nan v then 0. else v

let result_line ~correct ~attempted ~failed metrics =
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", Json.Float (num v)); ("unit", Json.String unit) ]))
                metrics) );
       ])

let per_layer_values (a : Workloads.args) (o : Workloads.outcome) ~calib =
  let spans = List.map (fun (n, v) -> (n ^ "_ms", v)) (Trace.layer_medians ()) in
  let overhead =
    100. *. ((Common.median o.traced_ms /. Common.median o.op_ms) -. 1.)
  in
  let inexact = List.length (List.filter (fun (_, ok) -> not ok) o.audit) in
  let measured =
    spans @ o.layers
    @ [
        ("host.calib_ms", calib);
        ("trace.overhead_pct", overhead);
        ("trace.coverage_pct", Trace.coverage_pct ());
        ("audit.inexact_counts", float_of_int inexact);
      ]
  in
  Printf.printf "per-layer self time and counts, workload %s seed %d (0 = layer not reached):\n"
    a.workload a.seed;
  List.map
    (fun (name, unit) ->
      let v = Option.value ~default:0. (List.assoc_opt name measured) in
      Printf.printf "  %-28s %14.4f %s\n" name (num v) unit;
      (name, unit, v))
    per_layer

let run (a : Workloads.args) =
  let calib0 = Common.calib_ms () in
  let o = Workloads.run a in
  let calib1 = Common.calib_ms () in
  let all_ms = o.op_ms @ o.traced_ms in
  let n = List.length all_ms in
  let tail q min_n = if n >= min_n then Json.Float (Common.percentile q all_ms) else Json.Null in
  print_endline
    ("jbench: "
    ^ Json.to_string
        (Json.Obj
           ([
              ("workload", Json.String a.workload);
              ("seed", Json.Int a.seed);
              ("trace", Json.Bool a.trace);
              ("ops", Json.Int n);
              ("setup_s_reps", Json.List (List.map (fun s -> Json.Float s) o.setup_s));
              ("op_ms_p90", tail 0.9 100);
              ("op_ms_p99", tail 0.99 1000);
              ("host_calib_ms", Json.Obj [ ("start", Json.Float calib0); ("end", Json.Float calib1) ]);
            ]
           @ o.notes)));
  if o.audit <> [] then begin
    print_endline "exact-count audit (the same work done twice in this run):";
    List.iter
      (fun (name, ok) -> Printf.printf "  %-24s %s\n" name (if ok then "exact" else "NOT exact"))
      o.audit
  end;
  let metrics =
    if a.trace then begin
      let path = Workdir.trace_file ~workload:a.workload ~seed:a.seed in
      Trace.write_trace_events path;
      Printf.printf "trace events: %s\n" path;
      per_layer_values a o ~calib:(Common.median [ calib0; calib1 ])
    end
    else
      let secs = Common.sum o.op_ms /. 1000. in
      List.map2
        (fun (name, unit) v -> (name, unit, v))
        end_to_end
        [
          Common.median o.setup_s;
          Common.median o.op_ms;
          float_of_int (List.length o.op_ms) /. secs;
          o.peak_rss_mb;
        ]
  in
  print_endline
    (result_line ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed metrics)

let usage () =
  prerr_endline
    "usage: jbench --workload compile|solve|query|edit --seed N --seconds S --trace 0|1\n\
    \       jbench selftest";
  exit 2

let parse_run argv =
  let get k =
    let rec go = function
      | x :: v :: _ when x = k -> Some v
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let req k = match get k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (req k) with Some i -> i | None -> usage () in
  let workload = req "--workload" in
  if not (List.mem workload [ "compile"; "solve"; "query"; "edit" ]) then usage ();
  {
    Workloads.workload;
    seed = int "--seed";
    seconds = float_of_int (int "--seconds");
    trace = int "--trace" = 1;
    corrupt = false;
  }

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "serve-query"; "--snapshot"; file ] -> Server.serve_query file
  | [ "serve-edit"; "--seed"; seed ] -> Server.serve_edit (int_of_string seed)
  | [ "selftest" ] -> exit (Selftest.run ())
  | argv -> run (parse_run argv)
