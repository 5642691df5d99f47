(* The browsable profiler (§4.3): run the points-to analysis with shape
   profiling on and emit the HTML / CSV / SQL reports.

   Run with:  dune exec examples/profiling_demo.exe
   Then open  _profile/pointsto.html  in a browser. *)

module Workload = Jedd_minijava.Workload
module Driver = Jedd_lang.Driver
module Interp = Jedd_lang.Interp
module Recorder = Jedd_profiler.Recorder
module Report = Jedd_profiler.Report
module U = Jedd_relation.Universe

let () =
  let p = Workload.generate (Workload.profile_named "compress") in
  let compiled =
    match
      Driver.compile
        [ ("PointsTo.jedd", Jedd_analyses.Suite.source_for p "Points-to Analysis") ]
    with
    | Ok c -> c
    | Error e ->
      prerr_endline (Driver.error_to_string e);
      exit 1
  in
  let inst = Driver.instantiate compiled in
  let recorder = Recorder.create () in
  Recorder.attach recorder (Interp.universe inst) ~level:U.Shapes;
  Jedd_analyses.Pointsto.load_facts inst p;
  Jedd_analyses.Pointsto.run inst;
  Recorder.detach (Interp.universe inst);
  Printf.printf "recorded %d relational operations\n"
    (Recorder.total_operations recorder);
  print_endline "\nmost expensive operations (the profiler's overview view):";
  List.iteri
    (fun i (s : Recorder.summary) ->
      if i < 10 then
        Printf.printf "  %-10s %-18s %5dx  %8.3f ms  max %d nodes\n" s.op
          s.label s.executions s.total_millis s.max_result_nodes)
    (Recorder.summaries recorder);
  (try Unix.mkdir "_profile" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let files = Report.write_files recorder ~dir:"_profile" ~prefix:"pointsto" in
  print_endline "\nreports written:";
  List.iter (fun f -> Printf.printf "  %s\n" f) files
