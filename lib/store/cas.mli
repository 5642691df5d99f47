(** A content-addressed store for snapshot blobs: [objects/<md5>.snap]
    keyed by content digest, plus a [refs/<name>] namespace of mutable
    pointers — a deliberately git-shaped layout.  All writes are
    temp-file + rename, so readers never observe partial objects. *)

type t

exception Corrupt_object of string
(** Raised by [get] when an object's contents no longer hash to the
    digest in its filename (on-disk damage).  The message carries the
    offending path and the expected vs. found digests. *)

val open_ : string -> t
(** A store rooted at a path.  Nothing is read or created here: {!put}
    and {!tag} create the directories they write into, and a missing
    store reads as empty. *)

val put : t -> string -> string
(** Store a blob, returning its hex digest.  Idempotent: an existing
    object with the same content is left untouched. *)

val tag : t -> string -> string -> unit
(** [tag t name hex] points ref [name] at an object digest.  Names are
    restricted to [[A-Za-z0-9._-]]. *)

val read_ref : t -> string -> string option

val resolve : t -> string -> string option
(** Object path for a ref name, full digest, or unambiguous digest
    prefix (at least 4 characters). *)

val get : t -> string -> string option
(** Blob contents for a ref name or digest (prefix).  Re-hashes the
    blob against its filename digest and raises {!Corrupt_object} on a
    mismatch. *)

val objects : t -> string list
(** All object digests, sorted. *)

val refs : t -> (string * string) list
(** All [(name, digest)] refs, sorted by name. *)
