(* The benchmark's own tests: every checker, handed a result with one
   tuple dropped and one added, must count a failure, and must pass the
   true result.  First the checkers alone on the tiny program, then each
   workload end to end for one second, clean and corrupted. *)

module Json = Jedd_server.Json
module Workload = Jedd_minijava.Workload

let run () =
  let ok = ref true in
  let expect what cond =
    if not cond then begin
      ok := false;
      Printf.printf "selftest FAIL: %s\n%!" what
    end
  in
  let want = Oracle.expected (Workload.generate Workload.tiny) in
  expect "results checker passes the reference" (Oracle.results_diff want want = 0);
  expect "results checker counts one dropped and one added tuple"
    (Oracle.results_diff want (Workloads.corrupt_results want) = 2);
  let truth = Oracle.query_truth want in
  let v, heaps =
    match want.pt with
    | [ v; _ ] :: _ -> (v, Hashtbl.find truth.Oracle.heaps_of v)
    | _ -> assert false
  in
  let req = Json.Obj [ ("verb", Json.String "pointsto"); ("var", Json.Int v) ] in
  let reply hs =
    Json.Obj
      [ ("ok", Json.Bool true); ("var", Json.Int v);
        ("heaps", Json.List (List.map (fun h -> Json.Int h) hs)) ]
  in
  expect "query checker passes the reference answer" (Oracle.check_reply truth req (reply heaps) = 0);
  expect "query checker counts one dropped and one added heap"
    (Oracle.check_reply truth req (Workloads.corrupt_reply (reply heaps)) = 2);
  List.iter
    (fun workload ->
      List.iter
        (fun corrupt ->
          let o =
            Workloads.run { Workloads.workload; seed = 1; seconds = 1.; trace = false; corrupt }
          in
          if corrupt then
            expect (workload ^ ": a corrupted result is counted as a failure") (o.failed > 0)
          else expect (workload ^ ": the true results pass every check") (o.failed = 0 && o.attempted > 0);
          Printf.printf "selftest %s corrupt=%b: attempted %d failed %d\n%!" workload corrupt
            o.attempted o.failed)
        [ false; true ])
    [ "compile"; "solve"; "query"; "edit" ];
  print_endline (if !ok then "selftest: OK" else "selftest: FAILED");
  if !ok then 0 else 1
