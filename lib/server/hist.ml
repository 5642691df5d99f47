(* Lock-free log2-bucketed latency histograms.  One histogram per verb:
   the serving worker domain records, and the stats verb reads
   percentile estimates — during a generation swap from the retiring
   generation's worker while the new one records, hence plain atomic
   increments (no locks).  Bucket [i] counts samples whose latency in
   microseconds has its highest set bit at position [i], so percentiles
   are exact to within a factor of two — plenty for p50/p95/p99 lines. *)

type t = {
  buckets : int Atomic.t array; (* index = log2 of the sample in us *)
  count : int Atomic.t;
  sum_us : int Atomic.t;
  max_us : int Atomic.t;
}

let nbuckets = 40 (* 2^39 us ≈ 6.4 days; samples above clamp to the top *)

let create () =
  {
    buckets = Array.init nbuckets (fun _ -> Atomic.make 0);
    count = Atomic.make 0;
    sum_us = Atomic.make 0;
    max_us = Atomic.make 0;
  }

let bucket_of_us us =
  let us = max us 1 in
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  min (log2 us 0) (nbuckets - 1)

let record t ~us =
  let us = max us 0 in
  Atomic.incr t.buckets.(bucket_of_us us);
  Atomic.incr t.count;
  ignore (Atomic.fetch_and_add t.sum_us us);
  let rec bump () =
    let cur = Atomic.get t.max_us in
    if us > cur && not (Atomic.compare_and_set t.max_us cur us) then bump ()
  in
  bump ()

let count t = Atomic.get t.count
let sum_us t = Atomic.get t.sum_us

(* Upper bound (in us) of the bucket holding the q-quantile sample. *)
let percentile_us t q =
  let total = Atomic.get t.count in
  if total = 0 then 0
  else begin
    let target =
      let x = int_of_float (ceil (q *. float_of_int total)) in
      max 1 (min x total)
    in
    let acc = ref 0 in
    let found = ref (-1) in
    (try
       for i = 0 to nbuckets - 1 do
         acc := !acc + Atomic.get t.buckets.(i);
         if !acc >= target then begin
           found := i;
           raise Exit
         end
       done
     with Exit -> ());
    if !found < 0 then 0 else 1 lsl (!found + 1)
  end

let mean_us t =
  let n = Atomic.get t.count in
  if n = 0 then 0.0 else float_of_int (Atomic.get t.sum_us) /. float_of_int n

let to_json t : Json.t =
  let ms us = Json.Float (float_of_int us /. 1000.0) in
  Json.Obj
    [
      ("count", Json.Int (Atomic.get t.count));
      ("mean_ms", Json.Float (mean_us t /. 1000.0));
      ("p50_ms", ms (percentile_us t 0.50));
      ("p95_ms", ms (percentile_us t 0.95));
      ("p99_ms", ms (percentile_us t 0.99));
      ("max_ms", ms (Atomic.get t.max_us));
    ]
