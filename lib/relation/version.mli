(** The package version and the banner the CLIs print for [--version]. *)

val version : string

val banner : string
(** ["jedd VERSION (backends: incore, mtbdd)"]. *)
