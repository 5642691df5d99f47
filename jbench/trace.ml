(* The benchmark's span recorder.  Spans are taken in the benchmark's
   own code around calls into the library's public functions; they are
   kept in memory and written out once, at the end of a traced run, as
   trace-event JSON (the format chrome://tracing and Perfetto read).

   Each span carries the phase it ran in (set-up or timed op) and a unit
   id (the op index, or the set-up repetition), so per-layer numbers can
   be taken per op.  A layer's time is its self time: the span's
   duration minus the time covered by its direct children. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span *)
  phase : string;  (** "setup", "op" or "prep" *)
  unit_id : int;
  t0 : float;
  t1 : float;
}

let on = ref false
let spans : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let phase = ref "setup"
let unit_id = ref 0

let set_unit ph u =
  phase := ph;
  unit_id := u

(* Record a span around [f] when tracing is on; a plain call otherwise. *)
let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    stack := id :: !stack;
    let ph = !phase and u = !unit_id in
    let t0 = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Common.now () in
        stack := List.tl !stack;
        spans := { id; name; parent; phase = ph; unit_id = u; t0; t1 } :: !spans)
      f
  end

(* A span whose duration was measured elsewhere (by the server, and
   reported back in a reply), placed at [t0]. *)
let add_measured ~name ~t0 ~ms =
  if !on then begin
    let id = !next_id in
    incr next_id;
    let parent = match !stack with p :: _ -> p | [] -> -1 in
    spans :=
      { id; name; parent; phase = !phase; unit_id = !unit_id; t0;
        t1 = t0 +. (ms /. 1000.) }
      :: !spans
  end

let dur_ms s = (s.t1 -. s.t0) *. 1000.

(* Self time of every span, in ms. *)
let self_times () =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    !spans;
  List.map
    (fun s ->
      (s, dur_ms s -. Option.value ~default:0. (Hashtbl.find_opt child s.id)))
    !spans

(* Per layer: the median over units of the layer's summed self time in
   one unit.  Units come from the timed ops when the layer ran in them,
   otherwise from the set-up repetitions, otherwise from benchmark-only
   preparation. *)
let layer_medians () =
  let st = self_times () in
  let by_key = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let k = (s.name, s.phase, s.unit_id) in
      Hashtbl.replace by_key k
        (self +. Option.value ~default:0. (Hashtbl.find_opt by_key k)))
    st;
  let names =
    List.sort_uniq compare (List.map (fun (s, _) -> s.name) st)
  in
  List.map
    (fun name ->
      let in_phase ph =
        Hashtbl.fold
          (fun (n, p, _) v acc -> if n = name && p = ph then v :: acc else acc)
          by_key []
      in
      let values =
        match in_phase "op" with
        | [] -> (
          match in_phase "setup" with [] -> in_phase "prep" | l -> l)
        | l -> l
      in
      (name, Common.median values))
    names

(* How much of each traced op its layer spans cover: the median over
   ops of (direct children's time / op time), in percent. *)
let coverage_pct () =
  let ops = List.filter (fun s -> s.name = "op" && s.phase = "op") !spans in
  let covered = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    !spans;
  Common.median
    (List.map
       (fun s ->
         100. *. Option.value ~default:0. (Hashtbl.find_opt covered s.id) /. dur_ms s)
       ops)

(* trace-event JSON: complete ("X") events in microseconds since the
   first span, the span tree carried in args.  Ops past the first
   [max_ops] are left out of the file (a query run traces ~90,000). *)
let max_ops = 2000

let write_trace_events path =
  let all = List.filter (fun s -> s.phase <> "op" || s.unit_id < max_ops) (List.rev !spans) in
  let base = List.fold_left (fun a s -> Float.min a s.t0) infinity all in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.1f,\"dur\":%.1f,\"args\":{\"id\":%d,\"parent\":%d,\"unit\":%d}}"
        s.name s.phase
        ((s.t0 -. base) *. 1e6)
        ((s.t1 -. s.t0) *. 1e6)
        s.id s.parent s.unit_id)
    all;
  output_string oc "]}\n";
  close_out oc
