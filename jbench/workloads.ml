(* The four workloads.  Each is a closed loop from one process with one
   op in flight: set-up (repeated [setup_reps] times, the median reported
   as setup_s), then ops until [seconds] of op time have passed.  The
   seed fixes the program, the edit stream and the query keys, and every
   run replays the same op sequence from a fresh start.  Oracles run
   between ops, outside each op's timed interval. *)

module Json = Jedd_server.Json
module P = Jedd_minijava.Program
module Suite = Jedd_analyses.Suite
module Snapshot = Jedd_store.Snapshot
module Edit = Jedd_incr.Edit

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  corrupt : bool;  (** hand every checker a result with one tuple dropped and one added *)
}

type outcome = {
  setup_s : float list;
  op_ms : float list;  (** untraced ops *)
  traced_ms : float list;  (** traced ops (traced runs alternate the two) *)
  attempted : int;
  failed : int;
  peak_rss_mb : float;
  layers : (string * float) list;  (** per-layer values not taken from spans *)
  audit : (string * bool) list;  (** count metric -> reproduced exactly *)
  notes : (string * Json.t) list;
}

let setup_reps = 5

(* A workload's set-up, [f r] for repetition r.  The first repetition
   runs at once and its state serves the timed phase; [timed_phase] runs
   the others between ops, spread evenly over the phase, and [discard]s
   their state at once.  Set-ups run back to back all fell in one phase
   of the host's speed, so their median moved with that phase from run
   to run; spread out, they sample the phases the ops see. *)
type setup = { times : float list ref; again : int -> unit }

let setup a ?(discard = ignore) f =
  let times = ref [] in
  let run r =
    Trace.set_unit "setup" r;
    Trace.on := a.trace;
    let t0 = Common.now () in
    let st = f r in
    times := (Common.now () -. t0) :: !times;
    Trace.on := false;
    st
  in
  let first = run 0 in
  (first, { times; again = (fun r -> discard (run r)) })

let setup_times s = List.rev !(s.times)

(* Runs [op] until [seconds] of op time have passed and the op count is
   a multiple of [period] (so a workload that replays a fixed sequence
   times whole copies of it), with the remaining set-up repetitions in
   between.  [between i] runs, untraced, before op [i] (the edit
   workload restarts its server there).  Neither counts against
   [seconds].  In a traced run even ops are traced and odd ones are not,
   so the two are measured under the same host conditions and their
   medians give the tracing overhead. *)
let timed_phase ?(period = 1) ?(between = ignore) a su op =
  let untraced = Common.samples () and traced = Common.samples () in
  let start = ref (Common.now ()) in
  let i = ref 0 and r = ref 1 in
  let paused f =
    let t0 = Common.now () in
    f ();
    start := !start +. (Common.now () -. t0)
  in
  while Common.now () -. !start < a.seconds || !i mod period <> 0 do
    if !r < setup_reps && Common.now () -. !start >= a.seconds *. float_of_int !r /. float_of_int setup_reps
    then paused (fun () -> su.again !r; incr r);
    paused (fun () -> between !i);
    let tr = a.trace && !i mod 2 = 0 in
    Trace.set_unit "op" !i;
    Trace.on := tr;
    let ms = op !i tr in
    Trace.on := false;
    Common.add (if tr then traced else untraced) ms;
    incr i
  done;
  while !r < setup_reps do
    su.again !r;
    incr r
  done;
  (Common.to_list untraced, Common.to_list traced, !i)

(* One tuple dropped and one added, for the checker self-test. *)
let corrupt_results (r : Suite.results) =
  match r.pt with
  | [] -> r
  | _ :: rest -> { r with pt = [ -1; -1 ] :: rest }

(* Every checked op, warm-up included, counts as attempted; a check that
   covers the state every op built (a final generation, a compiled
   program run once) fails them all when it fails. *)
type tally = { mutable checked : int; mutable wrong : int }

let tally () = { checked = 0; wrong = 0 }

let record t ok =
  t.checked <- t.checked + 1;
  if not ok then t.wrong <- t.wrong + 1

let fail_all t = t.wrong <- t.checked

let exact name values =
  match values with
  | [] -> []
  | v :: rest -> [ (name, List.for_all (( = ) v) rest) ]

let fi = float_of_int

(* -- compile ------------------------------------------------------------ *)

let compile a =
  let p = Pipeline.program a.seed in
  let want = Oracle.expected p in
  let t = tally () in
  (* the first warm-up's Java is the reference every later output must
     equal byte for byte *)
  let java_ref = ref None in
  let check_java java =
    let d = Digest.string (if a.corrupt then java ^ "\n" else java) in
    match !java_ref with
    | None -> java_ref := Some (Digest.string java)
    | Some r -> record t (d = r)
  in
  let src, su =
    setup a (fun _ ->
        let src = Pipeline.source (Pipeline.program a.seed) in
        for _ = 1 to 2 do
          check_java (Pipeline.emit (Pipeline.compile_plain src))
        done;
        src)
  in
  let last = ref None and sat = ref [] in
  let op _ traced =
    let t0 = Common.now () in
    let c, java =
      Trace.span "op" (fun () ->
          let c =
            if traced then Pipeline.compile_traced src else Pipeline.compile_plain src
          in
          (c, Pipeline.emit c))
    in
    let ms = Common.ms_since t0 in
    check_java java;
    sat := Pipeline.sat_counts c :: !sat;
    last := Some c;
    ms
  in
  let op_ms, traced_ms, _ = timed_phase a su op in
  let peak = Common.self_peak_rss_mb () in
  (* the compiled output, run once and checked like the solve workload *)
  let c = Option.get !last in
  let _, got, _ = Pipeline.solve c p in
  let got = if a.corrupt then corrupt_results got else got in
  if Oracle.results_diff want got > 0 then fail_all t;
  let vars, clauses = List.split !sat in
  {
    setup_s = setup_times su;
    op_ms;
    traced_ms;
    attempted = t.checked;
    failed = t.wrong;
    peak_rss_mb = peak;
    layers =
      [
        ("sat.vars", fi (List.hd vars));
        ("sat.clauses", fi (List.hd clauses));
        ("lang.replace_sites", fi (Pipeline.replace_sites c));
      ];
    audit = exact "sat.vars" vars @ exact "sat.clauses" clauses;
    notes = [];
  }

(* -- solve -------------------------------------------------------------- *)

let bdd_layers (cs : Pipeline.bdd_counts list) =
  let med f = Common.median (List.map f cs) in
  [
    ("bdd.cache_lookups", med (fun c -> fi c.Pipeline.lookups));
    ( "bdd.cache_hit_ratio",
      med (fun c -> if c.Pipeline.lookups = 0 then 0. else fi c.hits /. fi c.lookups) );
    ("bdd.cache_evictions", med (fun c -> fi c.Pipeline.evictions));
    ("bdd.gc_count", med (fun c -> fi c.Pipeline.gcs));
    ("bdd.gc_ms", med (fun c -> c.Pipeline.gc_ms));
    ("bdd.grow_count", med (fun c -> fi c.Pipeline.grows));
    ("bdd.peak_nodes", med (fun c -> fi c.Pipeline.peak_nodes));
  ]

let bdd_audit (cs : Pipeline.bdd_counts list) =
  let open Pipeline in
  exact "bdd.cache_lookups" (List.map (fun c -> c.lookups) cs)
  @ exact "bdd.cache_hits" (List.map (fun c -> c.hits) cs)
  @ exact "bdd.cache_evictions" (List.map (fun c -> c.evictions) cs)
  @ exact "bdd.gc_count" (List.map (fun c -> c.gcs) cs)
  @ exact "bdd.grow_count" (List.map (fun c -> c.grows) cs)
  @ exact "bdd.peak_nodes" (List.map (fun c -> c.peak_nodes) cs)

let solve a =
  let want = Oracle.expected (Pipeline.program a.seed) in
  let t = tally () and counts = ref [] and traced_counts = ref [] in
  let check got =
    let got = if a.corrupt then corrupt_results got else got in
    record t (Oracle.results_diff want got = 0)
  in
  let (p, c), su =
    setup a (fun _ ->
        let p = Pipeline.program a.seed in
        let src = Pipeline.source p in
        let c = if a.trace then Pipeline.compile_traced src else Pipeline.compile_plain src in
        (* warm-up op, outside the timed phase *)
        let _, got, bc = Pipeline.solve c p in
        check got;
        counts := bc :: !counts;
        (p, c))
  in
  let op _ traced =
    let t0 = Common.now () in
    let _, got, bc = Trace.span "op" (fun () -> Pipeline.solve c p) in
    let ms = Common.ms_since t0 in
    check got;
    counts := bc :: !counts;
    if traced then traced_counts := bc :: !traced_counts;
    ms
  in
  let op_ms, traced_ms, _ = timed_phase a su op in
  let peak = Common.self_peak_rss_mb () in
  let layers =
    if not a.trace then []
    else begin
      let r = Pipeline.Recorder.create () in
      let _, got, _ = Pipeline.solve ~on_universe:(Pipeline.attach_recorder r) c p in
      check got;
      let vars, clauses = Pipeline.sat_counts c in
      Pipeline.relation_layers r ~per:1.
      @ bdd_layers !traced_counts
      @ [
          ("sat.vars", fi vars);
          ("sat.clauses", fi clauses);
          ("lang.replace_sites", fi (Pipeline.replace_sites c));
        ]
    end
  in
  {
    setup_s = setup_times su;
    op_ms;
    traced_ms;
    attempted = t.checked;
    failed = t.wrong;
    peak_rss_mb = peak;
    layers;
    (* the first op in the process (the first set-up's warm-up) is
       compared with every later one *)
    audit = bdd_audit (List.rev !counts);
    notes = [];
  }

(* -- query -------------------------------------------------------------- *)

let hot_keys = 32

(* The request mix: 70% pointsto on a hot set of 32 variables (served
   from the result cache after warm-up), 22% member over var x heap
   (a key space far larger than the 4096-entry cache), 4% resolve over
   call sites and 4% tuples over SideEffects.modSet selected on
   (srcmethod, field).  A fresh stream replays the same requests. *)
let query_stream seed (p : P.t) (want : Suite.results) =
  let rng = Random.State.make [| seed; 0x9e7 |] in
  let ri n = Random.State.int rng (max 1 n) in
  let pt_vars = Array.of_list (List.sort_uniq compare (List.map List.hd want.Suite.pt)) in
  let hot = Array.init hot_keys (fun _ -> pt_vars.(ri (Array.length pt_vars))) in
  let req verb fields = Json.Obj (("verb", Json.String verb) :: fields) in
  fun () ->
    let x = ri 100 in
    if x < 70 then req "pointsto" [ ("var", Json.Int hot.(ri hot_keys)) ]
    else if x < 92 then
      req "member"
        [ ("rel", Json.String "PointsTo.pt");
          ("tuple", Json.List [ Json.Int (ri p.P.n_vars); Json.Int (ri p.P.n_heap) ]) ]
    else if x < 96 then req "resolve" [ ("callsite", Json.Int (ri (List.length p.P.calls))) ]
    else
      req "tuples"
        [
          ("rel", Json.String "SideEffects.modSet");
          ( "select",
            Json.Obj
              [ ("srcmethod", Json.Int (ri p.P.n_methods)); ("field", Json.Int (ri p.P.n_fields)) ] );
          ("project", Json.List [ Json.String "baseheap" ]);
        ]

let warmup_requests = 3000

let verb_of req = Option.value ~default:"" (Option.bind (Json.member "verb" req) Json.to_string_opt)

let stats_num path (stats : Json.t) =
  let rec go v = function
    | [] -> ( match v with Json.Int i -> fi i | Json.Float f -> f | _ -> 0.)
    | k :: rest -> ( match Json.member k v with Some v -> go v rest | None -> 0.)
  in
  go stats path

let corrupt_reply (reply : Json.t) =
  match reply with
  | Json.Obj kvs ->
    Json.Obj
      (List.map
         (fun (k, v) ->
           match (k, v) with
           | "heaps", Json.List (_ :: rest) -> (k, Json.List (Json.Int (-1) :: rest))
           | "heaps", Json.List [] -> (k, Json.List [ Json.Int (-1) ])
           | "member", Json.Bool b -> (k, Json.Bool (not b))
           | "targets", Json.List l -> (k, Json.List (Json.Obj [] :: l))
           | "total", Json.Int n -> (k, Json.Int (n + 1))
           | _ -> (k, v))
         kvs)
  | v -> v

let query a =
  (* benchmark-only preparation, outside setup_s: the program, its
     results checked against the reference, and the snapshot file the
     server loads *)
  let p = Pipeline.program a.seed in
  let want = Oracle.expected p in
  let truth = Oracle.query_truth want in
  let c = Pipeline.compile_plain (Pipeline.source p) in
  let inst, got, _ = Pipeline.solve c p in
  let snapshot_ok = Oracle.results_diff want got = 0 in
  Trace.set_unit "prep" 0;
  Trace.on := a.trace;
  let bytes = Trace.span "store.save" (fun () -> Snapshot.to_bytes (Suite.snapshot inst)) in
  Trace.on := false;
  let file = Filename.concat (Workdir.get ()) "query.snap" in
  Out_channel.with_open_bin file (fun oc -> output_string oc bytes);
  let t = tally () and warm_cache = ref [] in
  let check req reply =
    let reply = if a.corrupt then corrupt_reply reply else reply in
    record t (Oracle.check_reply truth req reply = 0)
  in
  let (h, next), su =
    setup a ~discard:(fun (h, _) -> Server.stop h) (fun _ ->
        let t0 = Common.now () in
        let h = Server.start [ "serve-query"; "--snapshot"; file ] in
        Server.trace_steps h ~t0;
        let next = query_stream a.seed p want in
        for _ = 1 to warmup_requests do
          let req = next () in
          check req (Server.request h req)
        done;
        let st = Server.request h (Jedd_server.Client.req "stats" []) in
        warm_cache :=
          (stats_num [ "result_cache"; "hits" ] st, stats_num [ "bdd"; "cache_hits" ] st)
          :: !warm_cache;
        (h, next))
  in
  let stats0 = Server.request h (Jedd_server.Client.req "stats" []) in
  let pointsto_rtt = Common.samples () in
  (* the op is the round trip of one request line; building the request
     and parsing the reply are the client's work, outside the op *)
  let op _ _ =
    let req = next () in
    let line = Json.to_string req in
    let t0 = Common.now () in
    let reply = Trace.span "op" (fun () -> Server.roundtrip h line) in
    let ms = Common.ms_since t0 in
    if verb_of req = "pointsto" then Common.add pointsto_rtt ms;
    check req (Json.of_string reply);
    ms
  in
  let op_ms, traced_ms, n = timed_phase a su op in
  let stats1 = Server.request h (Jedd_server.Client.req "stats" []) in
  let peak = Server.peak_rss_mb h in
  Server.stop h;
  Sys.remove file;
  (* a wrong snapshot makes every answer suspect *)
  if not snapshot_ok then fail_all t;
  let d path = stats_num path stats1 -. stats_num path stats0 in
  let hits = d [ "result_cache"; "hits" ] and misses = d [ "result_cache"; "misses" ] in
  let ratio x y = x /. Float.max 1. (x +. y) in
  (* the server's own mean latency for pointsto over the timed phase,
     from the per-verb histograms of the stats verb *)
  let lat = [ "latency"; "pointsto" ] in
  let lat_sum s = stats_num (lat @ [ "mean_ms" ]) s *. stats_num (lat @ [ "count" ]) s in
  let server_pt_us = 1000. *. (lat_sum stats1 -. lat_sum stats0) /. Float.max 1. (d (lat @ [ "count" ])) in
  let per_op x = x /. fi (max 1 n) in
  let bdd k = d [ "bdd"; k ] in
  let layers =
    if not a.trace then []
    else
      [
        ("server.cache_hit_ratio", ratio hits misses);
        ("server.transport_us_p50", (1000. *. Common.median (Common.to_list pointsto_rtt)) -. server_pt_us);
        ("store.snapshot_bytes", fi (String.length bytes));
        ("bdd.cache_lookups", per_op (bdd "cache_hits" +. bdd "cache_misses"));
        ("bdd.cache_hit_ratio", ratio (bdd "cache_hits") (bdd "cache_misses"));
        ("bdd.cache_evictions", per_op (bdd "cache_evictions"));
        ("bdd.gc_count", per_op (bdd "gcs"));
        ("bdd.gc_ms", per_op (bdd "gc_millis"));
        ("bdd.grow_count", per_op (bdd "grows"));
        ("bdd.peak_nodes", stats_num [ "bdd"; "peak_nodes" ] stats1);
        ("sat.vars", fi (fst (Pipeline.sat_counts c)));
        ("sat.clauses", fi (snd (Pipeline.sat_counts c)));
        ("lang.replace_sites", fi (Pipeline.replace_sites c));
      ]
      @ Replay.layers ~bytes ~stream:(query_stream a.seed p want) ~warmup:warmup_requests
          ~ops:n
  in
  {
    setup_s = setup_times su;
    op_ms;
    traced_ms;
    attempted = t.checked;
    failed = t.wrong;
    peak_rss_mb = peak;
    layers;
    (* the same warm-up requests, replayed on each fresh server *)
    audit =
      exact "server.cache_hits" (List.map fst !warm_cache)
      @ exact "bdd.cache_hits" (List.map snd !warm_cache);
    notes = [ ("result_cache_hit_ratio", Json.Float (ratio hits misses)) ];
  }

(* -- edit --------------------------------------------------------------- *)

(* The edit stream: Edit.random's own draws against the base program from
   a fixed generator, relabelled like the program for the seed, so every
   seed replays the same edits up to renaming. *)
let edit_stream seed =
  let rng = Random.State.make [| 11; 0xed17 |] in
  let labels = Pipeline.labels seed in
  let base = ref (Lazy.force Pipeline.base_program) in
  let p = ref (Pipeline.program seed) in
  fun () ->
    let e = Edit.random rng !base in
    base := Edit.apply !base e;
    let e = Pipeline.relabel_edit labels e in
    p := Edit.apply !p e;
    (e, !p)

let warmup_edits = 2

(* Edits per episode.  The timed phase replays the same episode — a
   fresh server, [warmup_edits] untimed edits, then these — as often as
   the run allows, so every run times whole copies of the same edits.
   The count is odd, so that each position of the episode falls on
   traced and untraced ops alike in a traced run. *)
let episode_edits = 15

let stage_names = [ "hierarchy"; "pointsto"; "vcall"; "callgraph"; "sideeffect" ]

type update_reply = {
  mode : string;
  solve_ms : float;
  total_ms : float;
  evicted : int;
  stages : (string * float * int * int) list;  (** stage, ms, delta tuples, iterations *)
}

let parse_update (r : Json.t) =
  let num k v = match Json.member k v with Some x -> Server.float_of_json x | None -> nan in
  let int k v = match Json.member k v with Some (Json.Int i) -> i | _ -> 0 in
  {
    mode = Option.value ~default:"" (Option.bind (Json.member "mode" r) Json.to_string_opt);
    solve_ms = num "solve_millis" r;
    total_ms = num "total_millis" r;
    evicted = int "evicted_cache_entries" r;
    stages =
      (match Json.member "stages" r with
      | Some (Json.List l) ->
        List.map
          (fun s ->
            ( Option.value ~default:"" (Option.bind (Json.member "stage" s) Json.to_string_opt),
              num "millis" s,
              int "delta_tuples" s,
              int "iterations" s ))
          l
      | _ -> []);
  }

(* The relations of the final generation, through the protocol, in the
   shape Suite.results has. *)
let fetch_results h =
  let rows rel =
    let r = Server.request h (Jedd_server.Client.req "tuples" [ ("rel", Json.String rel) ]) in
    match Json.member "tuples" r with
    | Some (Json.List l) ->
      List.sort compare
        (List.map
           (function
             | Json.List xs -> List.map (function Json.Int i -> i | _ -> -1) xs
             | _ -> [])
           l)
    | _ -> []
  in
  let resolved = rows "VirtualCalls.resolved" in
  {
    Suite.subtypes = rows "Hierarchy.subtypes";
    pt = rows "PointsTo.pt";
    resolved;
    call_edges =
      List.sort_uniq compare
        (List.filter_map (function [ cs; _; _; m ] -> Some [ cs; m ] | _ -> None) resolved);
    reachable = rows "CallGraph.reachable";
    side_effects = rows "SideEffects.modSet";
  }

(* What the timed updates were: for each edit of the episode its kind,
   the Live mode it ran in and its median op time, then the edit the
   median op belongs to (so a reader can see whether op_ms_p50 sits
   inside one class).  [ops] holds (op ms, episode position, mode). *)
let edit_notes edits ops =
  let kind pos =
    Option.value ~default:"?"
      (Option.bind (Json.member "op" (Server.edit_json (fst edits.(pos)))) Json.to_string_opt)
  in
  let describe pos =
    let mine = List.filter (fun (_, p, _) -> p = pos) ops in
    let mode = match mine with (_, _, m) :: _ -> m | [] -> "" in
    Json.Obj
      [
        ("pos", Json.Int pos); ("edit", Json.String (kind pos)); ("mode", Json.String mode);
        ("ms_p50", Json.Float (Common.median (List.map (fun (ms, _, _) -> ms) mine)));
      ]
  in
  let sorted = List.sort compare ops in
  [
    ("episode", Json.List (List.init episode_edits (fun i -> describe (warmup_edits + i))));
    ( "p50_op",
      match sorted with
      | [] -> Json.Null
      | _ ->
        let _, pos, _ = List.nth sorted (List.length sorted / 2) in
        describe pos );
  ]

let edit a =
  let edits = Array.of_list (let next = edit_stream a.seed in
                             List.init (warmup_edits + episode_edits) (fun _ -> next ())) in
  let t = tally () and warm = ref [] in
  (* one update; in a traced op the server-reported solve and swap times
     become child spans, leaving transport as the op's self time *)
  let update h pos =
    let req =
      Json.Obj [ ("verb", Json.String "update"); ("edit", Server.edit_json (fst edits.(pos))) ]
    in
    let t0 = Common.now () in
    let reply, u =
      Trace.span "op" (fun () ->
          let reply = Server.request h req in
          let u = parse_update reply in
          Trace.add_measured ~name:"incr.solve" ~t0 ~ms:u.solve_ms;
          Trace.add_measured ~name:"serve.swap"
            ~t0:(t0 +. (u.solve_ms /. 1000.))
            ~ms:(u.total_ms -. u.solve_ms);
          (reply, u))
    in
    let ms = Common.ms_since t0 in
    record t (Json.member "ok" reply = Some (Json.Bool true));
    (ms, u)
  in
  (* a fresh server and Live session, warmed with the first edits *)
  let start_episode () =
    let t0 = Common.now () in
    let h = Server.start [ "serve-edit"; "--seed"; string_of_int a.seed ] in
    Server.trace_steps h ~t0;
    let replies = List.init warmup_edits (fun pos -> snd (update h pos)) in
    (h, replies)
  in
  (* the generation an episode ends on must equal the reference results
     for the program its edits produced; it is the product of every
     update in the episode *)
  let expected = Hashtbl.create 4 and peaks = ref [] in
  let end_episode h ~last_pos =
    let want =
      match Hashtbl.find_opt expected last_pos with
      | Some w -> w
      | None ->
        let w = Oracle.expected (snd edits.(last_pos)) in
        Hashtbl.add expected last_pos w;
        w
    in
    let got = fetch_results h in
    let got = if a.corrupt then corrupt_results got else got in
    if Oracle.results_diff want got > 0 then fail_all t;
    peaks := Server.peak_rss_mb h :: !peaks;
    Server.stop h
  in
  let h, su =
    setup a ~discard:Server.stop (fun r ->
        let h, replies = start_episode () in
        warm := List.map (fun u -> (r, u)) replies @ !warm;
        h)
  in
  let h = ref h and pos = ref warmup_edits in
  let replies = ref [] and transport = ref [] and ops = ref [] in
  (* an episode restart belongs to no op: it runs between ops, untraced
     and off the clock *)
  let between _ =
    if !pos = warmup_edits + episode_edits then begin
      end_episode !h ~last_pos:(!pos - 1);
      h := fst (start_episode ());
      pos := warmup_edits
    end
  in
  let op _ traced =
    let ms, u = update !h !pos in
    ops := (ms, !pos, u.mode) :: !ops;
    incr pos;
    if traced then replies := u :: !replies;
    transport := (ms -. u.total_ms) :: !transport;
    ms
  in
  let op_ms, traced_ms, _ = timed_phase ~period:episode_edits ~between a su op in
  let snapshot_bytes =
    Option.fold ~none:0. ~some:Server.float_of_json (List.assoc_opt "snapshot_bytes" !h.Server.extra)
  in
  end_episode !h ~last_pos:(!pos - 1);
  let peak = Common.median !peaks in
  let replies = List.rev !replies in
  let med f = Common.median (List.map f replies) in
  let stage_ms name u =
    List.fold_left (fun acc (s, ms, _, _) -> if s = name then acc +. ms else acc) 0. u.stages
  in
  let sum_stages f u = List.fold_left (fun acc st -> acc + f st) 0 u.stages in
  let deltas = sum_stages (fun (_, _, d, _) -> d) and iters = sum_stages (fun (_, _, _, it) -> it) in
  (* counts over a fixed prefix of the traced ops, so that two runs of
     one seed count the same edits *)
  let prefix = List.filteri (fun i _ -> i < 25) replies in
  let count_mode m = fi (List.length (List.filter (fun u -> u.mode = m) prefix)) in
  let total f = fi (List.fold_left (fun acc u -> acc + f u) 0 prefix) in
  let layers =
    if not a.trace then []
    else
      [
        ("incr.mode_incremental", count_mode "incremental");
        ("incr.mode_partial", count_mode "partial");
        ("incr.mode_rebuild", count_mode "rebuild");
        ("incr.mode_recompile", count_mode "recompile");
        ("incr.delta_tuples", total deltas);
        ("incr.iterations", total iters);
        ("serve.evicted_entries", med (fun u -> fi u.evicted));
        ("server.transport_us_p50", 1000. *. Common.median !transport);
        ("store.snapshot_bytes", snapshot_bytes);
      ]
      @ List.map (fun s -> ("incr." ^ s ^ "_ms", med (stage_ms s))) stage_names
  in
  (* the same warm-up edits, replayed on each fresh server *)
  let reps =
    List.init setup_reps (fun r ->
        List.rev (List.filter_map (fun (r', u) -> if r' = r then Some u else None) !warm))
  in
  let per_rep f = List.map (List.map f) reps in
  {
    setup_s = setup_times su;
    op_ms;
    traced_ms;
    attempted = t.checked;
    failed = t.wrong;
    peak_rss_mb = peak;
    layers;
    audit =
      exact "incr.mode" (per_rep (fun u -> u.mode))
      @ exact "incr.delta_tuples" (per_rep deltas)
      @ exact "incr.iterations" (per_rep iters);
    notes = edit_notes edits !ops;
  }

let run a =
  match a.workload with
  | "compile" -> compile a
  | "solve" -> solve a
  | "query" -> query a
  | "edit" -> edit a
  | w -> invalid_arg ("unknown workload " ^ w)
