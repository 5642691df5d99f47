(* Package version, threaded into every CLI's --version output. *)

let version = "0.5.0"

let banner = "jedd " ^ version
