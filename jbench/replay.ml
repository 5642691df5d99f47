(* Query evaluation measured in-process: the query stream the server saw,
   replayed through Qeval.eval on the same snapshot, so evaluation,
   result-cache and rendering times can be read without the transport. *)

module Json = Jedd_server.Json
module Qeval = Jedd_server.Qeval
module Protocol = Jedd_server.Protocol
module Rescache = Jedd_server.Rescache
module Snapshot = Jedd_store.Snapshot

let us_since t0 = (Common.now () -. t0) *. 1e6

let layers ~bytes ~stream ~warmup ~ops =
  let snap = Snapshot.of_bytes ~backend:`Incore ~freeze:true bytes in
  let world = { Protocol.snap; extra_stats = (fun () -> []) } in
  let q =
    Qeval.create ~cache_capacity:4096 ~universe_hash:(Digest.to_hex (Digest.string bytes)) world
  in
  let cache = Option.get (Qeval.cache q) in
  let eval req = match Qeval.eval q req with Protocol.Reply r | Protocol.Quit r -> r in
  for _ = 1 to warmup do
    ignore (eval (stream ()))
  done;
  let hit = ref [] and miss = ref [] and render = ref [] in
  for _ = 1 to ops do
    let req = stream () in
    let hits0 = Rescache.hits cache in
    let t0 = Common.now () in
    let reply = eval req in
    let us = us_since t0 in
    if Rescache.hits cache > hits0 then hit := us :: !hit else miss := us :: !miss;
    let t1 = Common.now () in
    ignore (Sys.opaque_identity (Json.to_string reply));
    render := us_since t1 :: !render
  done;
  (* relational ops behind the misses, over a further stretch of the
     stream at profile level Counts *)
  let r = Pipeline.Recorder.create () in
  Pipeline.attach_recorder r snap.Snapshot.u;
  let rel_ops = min ops 5000 in
  for _ = 1 to rel_ops do
    ignore (eval (stream ()))
  done;
  [
    ("server.eval_us_hit", Common.median !hit);
    ("server.eval_us_miss", Common.median !miss);
    ("server.render_us", Common.median !render);
  ]
  @ Pipeline.relation_layers r ~per:(float_of_int (max 1 rel_ops))
