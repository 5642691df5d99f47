(* The instrumented query evaluator of the serving worker
   (Jedd_serve.Pool): Protocol.eval wrapped with a bounded result cache
   and per-verb latency histograms.

   Cache keys are the canonical form of the request — object fields
   sorted recursively, the non-semantic "id" and "timeout_ms" fields
   dropped — plus the universe hash, so a snapshot upgrade can never
   serve stale answers.  Only successful replies to pure read verbs are
   cached; batch is evaluated here, not in Protocol, so each sub-request
   hits the cache individually.

   Latency is kept per known verb ([Protocol.verbs] and batch); every
   other verb a client sends shares the "unknown" histogram, and a
   request without a verb the "invalid" one, so outside input cannot
   add histograms. *)

type t = {
  world : Protocol.world;
  cache : Rescache.t option;
  universe_hash : string;
  hists : (string, Hist.t) Hashtbl.t; (* per-verb latency, see [latency_key] *)
  hist_lock : Mutex.t;
      (* guards [hists]: the worker adds verbs to it while, during a
         generation swap, the retiring generation's worker may read it
         for a stats request *)
}

(* [?cache] shares an existing Rescache across evaluators — the
   generation-swap path hands each new generation's Qeval the same
   cache, then evicts the retired universe hash's entries from it.
   Keys embed the universe hash, so sharing can never mix answers. *)
let create ?cache ?(cache_capacity = 4096) ~universe_hash world =
  {
    world;
    cache =
      (match cache with
      | Some _ -> cache
      | None ->
        if cache_capacity > 0 then
          Some (Rescache.create ~capacity:cache_capacity)
        else None);
    universe_hash;
    hists = Hashtbl.create 16;
    hist_lock = Mutex.create ();
  }

let cache t = t.cache

let world t = t.world
let universe_hash t = t.universe_hash

let hist_for t verb =
  Mutex.lock t.hist_lock;
  let h =
    match Hashtbl.find_opt t.hists verb with
    | Some h -> h
    | None ->
      let h = Hist.create () in
      Hashtbl.add t.hists verb h;
      h
  in
  Mutex.unlock t.hist_lock;
  h

(* -- canonical request keys --------------------------------------------- *)

let rec canonicalize (v : Json.t) : Json.t =
  match v with
  | Json.Obj kvs ->
    Json.Obj
      (List.sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.map (fun (k, v) -> (k, canonicalize v)) kvs))
  | Json.List l -> Json.List (List.map canonicalize l)
  | v -> v

let cache_key t req =
  let semantic =
    match req with
    | Json.Obj kvs ->
      Json.Obj (List.filter (fun (k, _) -> k <> "id" && k <> "timeout_ms") kvs)
    | v -> v
  in
  Json.to_string (canonicalize semantic) ^ "#" ^ t.universe_hash

let cacheable_verb = function
  | "version" | "relations" | "count" | "member" | "tuples" | "pointsto"
  | "resolve" ->
    true
  | _ -> false

let payload_fields = function
  | Json.Obj kvs -> List.filter (fun (k, _) -> k <> "id" && k <> "ok") kvs
  | _ -> []

let is_ok = function
  | Json.Obj kvs -> List.assoc_opt "ok" kvs = Some (Json.Bool true)
  | _ -> false

let verb_of req =
  match Json.member "verb" req with Some (Json.String v) -> v | _ -> ""

let latency_key = function
  | "" -> "invalid"
  | "batch" as v -> v
  | v -> if List.mem v Protocol.verbs then v else "unknown"

let now_us () = int_of_float (Unix.gettimeofday () *. 1e6)

(* -- evaluation ---------------------------------------------------------- *)

let rec eval t req : Protocol.outcome =
  let verb = verb_of req in
  let start = now_us () in
  let outcome =
    match verb with
    | "batch" -> eval_batch t req
    | v when cacheable_verb v -> eval_cached t req
    | _ -> Protocol.eval t.world req
  in
  Hist.record (hist_for t (latency_key verb)) ~us:(now_us () - start);
  outcome

and eval_cached t req =
  let id = Protocol.request_id req in
  match t.cache with
  | None -> Protocol.eval t.world req
  | Some cache -> (
    let key = cache_key t req in
    match Rescache.find cache key with
    | Some fields -> Protocol.Reply (Protocol.ok id fields)
    | None -> (
      match Protocol.eval t.world req with
      | Protocol.Reply r as outcome ->
        if is_ok r then Rescache.add cache key (payload_fields r);
        outcome
      | outcome -> outcome))

and eval_batch t req =
  let id = Protocol.request_id req in
  match Json.member "requests" req with
  | Some (Json.List reqs) ->
    (* a shutdown inside a batch stops the server after the whole
       batch's responses are flushed *)
    let quit = ref false in
    let responses =
      List.map
        (fun sub ->
          (* A batch runs on the worker against one frozen generation;
             only a request of its own reaches the live updater. *)
          if verb_of sub = "update" then
            Protocol.err (Protocol.request_id sub)
              "update cannot be batched: send it as its own request"
          else
            match eval t sub with
            | Protocol.Reply r -> r
            | Protocol.Quit r ->
              quit := true;
              r)
        reqs
    in
    let body = Protocol.ok id [ ("responses", Json.List responses) ] in
    if !quit then Protocol.Quit body else Protocol.Reply body
  | _ -> Protocol.Reply (Protocol.err id "batch: missing \"requests\" array")

(* -- stats --------------------------------------------------------------- *)

(* Additive keys merged into the stats verb's payload. *)
let stats_fields t : (string * Json.t) list =
  let latency =
    Mutex.lock t.hist_lock;
    let kvs =
      Hashtbl.fold (fun verb h acc -> (verb, Hist.to_json h) :: acc) t.hists []
    in
    Mutex.unlock t.hist_lock;
    List.sort (fun (a, _) (b, _) -> String.compare a b) kvs
  in
  [
    ( "result_cache",
      match t.cache with
      | Some c -> Rescache.stats_json c
      | None -> Json.Obj [ ("enabled", Json.Bool false) ] );
    ("latency", Json.Obj latency);
    ("universe_hash", Json.String t.universe_hash);
  ]
