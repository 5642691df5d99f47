(* Clocks, order statistics, process memory and the host-speed probe
   shared by every workload. *)

(* Seconds on a monotonic clock (CLOCK_MONOTONIC), nanosecond steps;
   Unix.gettimeofday moves in microsecond steps, too coarse for the query
   workload's ~45 us ops. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let ms_since t0 = (now () -. t0) *. 1000.

(* Linear interpolation between closest ranks (the same convention as
   Python's statistics.quantiles with method="inclusive"). *)
let percentile q xs =
  match xs with
  | [] -> nan
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then a.(n - 1) else a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = percentile 0.5 xs

(* A growable buffer of float samples; unboxed, so a run's hundreds of
   thousands of op times add nothing for the GC to scan. *)
type samples = { mutable buf : Float.Array.t; mutable len : int }

let samples () = { buf = Float.Array.create 1024; len = 0 }

let add s x =
  if s.len = Float.Array.length s.buf then begin
    let b = Float.Array.create (2 * s.len) in
    Float.Array.blit s.buf 0 b 0 s.len;
    s.buf <- b
  end;
  Float.Array.set s.buf s.len x;
  s.len <- s.len + 1

let to_list s = List.init s.len (Float.Array.get s.buf)
let sum xs = List.fold_left ( +. ) 0. xs

(* Peak resident set (VmHWM) of a process, in MB; Linux /proc only. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> nan
      | line ->
        if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
            (fun kb -> float_of_int kb /. 1024.)
        else scan ()
    in
    let v = scan () in
    close_in ic;
    v

let self_peak_rss_mb () = peak_rss_mb "self"

(* Host-speed probe: a fixed integer loop over a small array, timed five
   times, median in ms.  Its only job is to show whether the host ran
   slow during a run; it does not touch the system under test. *)
let calib_ms () =
  let a = Array.init 4096 (fun i -> i * 7) in
  let once () =
    let t0 = now () in
    let acc = ref 0 in
    for r = 1 to 600 do
      for i = 0 to 4095 do
        let j = (i * r) land 4095 in
        acc := !acc + a.(j) lxor (i + r);
        a.(i) <- !acc land 0xffff
      done
    done;
    ignore (Sys.opaque_identity !acc);
    ms_since t0
  in
  median (List.init 5 (fun _ -> once ()))
