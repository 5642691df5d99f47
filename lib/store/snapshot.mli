(** Whole-universe snapshots: persistent captures of an in-core
    analysis run — declarations, variable order, and every named
    relation as a shared-structure levelized BDD dump — with format
    versioning, an MD5 checksum over the body, and hard rejection of
    anything that fails to round-trip.  See [snapshot.ml] for the file
    layout. *)

type t = {
  u : Jedd_relation.Universe.t;
  meta : (string * string) list;
      (** Caller key/values; [to_bytes] appends [jedd.version] and
          [jedd.backend] (always ["incore"]). *)
  domains : (string * Jedd_relation.Domain.t) list;
  attrs : (string * Jedd_relation.Attribute.t) list;
  physdoms : (string * Jedd_relation.Physdom.t) list;
      (** In declaration order — this fixes variable allocation. *)
  relations : (string * Jedd_relation.Relation.t) list;
}

exception Corrupt of string
(** Raised by every loading entry point on bad magic, version skew,
    length/checksum mismatch, truncation, dangling names, malformed
    dumps, or a tuple-count mismatch after reconstruction. *)

val format_version : int

val to_bytes : t -> string
(** Serialize.  Raises [Invalid_argument] if a relation's support or
    schema escapes the declared physical domains (scratch domains are
    not persisted). *)

(** {2 Framing internals}

    The checksummed envelope alone, for tests that re-seal a mutated
    payload so that it reaches the payload decoder; other callers want
    [to_bytes] / [of_bytes]. *)

val payload_of_bytes : string -> string
(** Verify the framing (magic, version, length, checksum) of snapshot
    file bytes and return the raw payload.  Raises [Corrupt]. *)

val bytes_of_payload : string -> string
(** Wrap a payload in the checksummed file framing (the inverse of
    [payload_of_bytes]). *)

val of_bytes :
  ?node_capacity:int ->
  ?node_limit:int ->
  ?backend:[ `Incore ] ->
  ?freeze:bool ->
  string ->
  t
(** Rebuild a fresh universe and every relation.  Each relation's tuple
    count is re-verified against the recorded one.  [backend] is
    accepted and ignored: there is one engine, and existing callers
    still name it.  [~freeze:true] lands the rebuilt universe
    directly in read-only serving mode
    ([Jedd_relation.Universe.freeze]): the final act of loading compacts
    the node store and fences off mutation. *)

val save_file : string -> t -> unit
(** Atomic (temp file + rename). *)

val load_file :
  ?node_capacity:int ->
  ?node_limit:int ->
  ?freeze:bool ->
  string ->
  t
(** [of_bytes] on a file's contents.  A file that cannot be read raises
    [Sys_error]; bytes that do not decode raise [Corrupt], its message
    prefixed with the path. *)

val meta_value : t -> string -> string option

val find_relation : t -> string -> Jedd_relation.Relation.t option
(** Exact name, or an unambiguous ["Class."]-stripped suffix (["pt"]
    finds ["PointsTo.pt"]). *)
