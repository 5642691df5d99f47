(* Whole-universe snapshots: the persistent form of an analysis run.

   A snapshot captures everything needed to answer relational queries
   without re-running the fixed points: the domain / attribute /
   physical-domain declarations, the variable order (as the levels of
   every physical-domain bit, densely renumbered), and every
   named relation as a shared-structure levelized BDD dump
   (Jedd_bdd.Levelized) plus its schema and tuple count.

   File layout:

     "JEDDSNAP"  8-byte magic
     i64         format version
     i64         payload length in bytes
     16 bytes    MD5 of the payload
     payload     Binio-encoded body (see [write_payload])

   Loading rebuilds a fresh in-core universe: physical domains are
   declared in their recorded order, which fixes the variable order, and
   each domain's recorded levels must be the levels it was just declared
   at; then each relation is imported bottom-up.  Every recorded tuple
   count is re-verified after import, so a snapshot that decodes but
   does not round-trip is rejected, not served.

   Any structural problem — bad magic, version skew, length or digest
   mismatch, truncation, dangling names, a recorded order the
   declarations do not give, malformed dumps, tuple-count mismatch —
   raises [Corrupt] with a description. *)

module Lv = Jedd_bdd.Levelized
module U = Jedd_relation.Universe
module R = Jedd_relation.Relation
module Dom = Jedd_relation.Domain
module Attr = Jedd_relation.Attribute
module Phys = Jedd_relation.Physdom
module Schema = Jedd_relation.Schema

type t = {
  u : U.t;
  meta : (string * string) list;
  domains : (string * Dom.t) list;  (* declaration order *)
  attrs : (string * Attr.t) list;
  physdoms : (string * Phys.t) list;  (* declaration order *)
  relations : (string * R.t) list;
}

exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let magic = "JEDDSNAP"
let format_version = 1

(* -- saving ------------------------------------------------------------- *)

(* Dense level renumbering: dump-time manager levels (which may have
   holes from scratch physical domains) -> 0..k-1, monotonically, as an
   array indexed by level, -1 at a level no declared physical domain
   holds.  Only the declared physical domains' bits are recorded; every
   relation's support must lie inside them (fields are always coerced
   to declared layouts). *)
let dense_remap physdoms =
  let levels =
    List.concat_map
      (fun (_, p) -> Array.to_list (Phys.levels p))
      physdoms
    |> List.sort_uniq compare
  in
  let remap =
    Array.make (List.fold_left (fun n l -> max n (l + 1)) 0 levels) (-1)
  in
  List.iteri (fun i l -> remap.(l) <- i) levels;
  remap

(* The two refusals of saving (and of [copy]): a relation whose root
   leaves the declared physical domains' levels, or whose schema stores
   an attribute in an undeclared (scratch) physical domain. *)
let outside_levels name =
  invalid_arg
    (Printf.sprintf
       "Snapshot: relation %s uses BDD levels outside the declared \
        physical domains"
       name)

let declared_phys_name s name (e : Schema.entry) =
  match List.find_opt (fun (_, p) -> Phys.equal p e.phys) s.physdoms with
  | Some (n, _) -> n
  | None ->
    invalid_arg
      (Printf.sprintf
         "Snapshot: relation %s stores attribute %s in an undeclared \
          (scratch?) physical domain %s"
         name (Attr.name e.attr) (Phys.name e.phys))

let recorded_meta s =
  s.meta
  @ [
      ("jedd.version", Jedd_relation.Version.version);
      ("jedd.backend", "incore");
    ]

let write_dump w (d : Lv.t) =
  Binio.int_ w d.Lv.root;
  Binio.int_ w (Array.length d.Lv.blocks);
  Array.iter
    (fun (l, lo, hi) ->
      Binio.int_ w l;
      Binio.int_array w lo;
      Binio.int_array w hi)
    d.Lv.blocks

(* a block is at least its level and two array lengths *)
let min_block_bytes = 24

let read_dump r : Lv.t =
  let root = Binio.read_int r in
  let nblocks = Binio.read_int r in
  if nblocks < 0 then corrupt "negative block count";
  if nblocks > Binio.remaining r / min_block_bytes then
    corrupt "block count %d exceeds the %d bytes left" nblocks
      (Binio.remaining r);
  let blocks =
    Array.init nblocks (fun _ ->
        let l = Binio.read_int r in
        let lo = Binio.read_int_array r in
        let hi = Binio.read_int_array r in
        (l, lo, hi))
  in
  { Lv.blocks; root }

let write_payload w s =
  let remap = dense_remap s.physdoms in
  let remap_level name l =
    if l < Array.length remap && remap.(l) >= 0 then remap.(l)
    else outside_levels name
  in
  Binio.list_ w
    (fun w (k, v) ->
      Binio.string_ w k;
      Binio.string_ w v)
    (recorded_meta s);
  Binio.list_ w
    (fun w (name, d) ->
      Binio.string_ w name;
      Binio.int_ w (Dom.size d))
    s.domains;
  Binio.list_ w
    (fun w (name, a) ->
      Binio.string_ w name;
      Binio.string_ w (Dom.name (Attr.domain a)))
    s.attrs;
  Binio.list_ w
    (fun w (name, p) ->
      Binio.string_ w name;
      Binio.int_ w (Phys.width p);
      Binio.int_array w
        (Array.map (fun l -> remap_level name l) (Phys.levels p)))
    s.physdoms;
  Binio.list_ w
    (fun w (name, rel) ->
      Binio.string_ w name;
      Binio.list_ w
        (fun w (e : Schema.entry) ->
          Binio.string_ w (Attr.name e.attr);
          Binio.string_ w (declared_phys_name s name e))
        (Schema.entries (R.schema rel));
      Binio.int_ w (R.size rel);
      write_dump w (Lv.map_levels (remap_level name) (R.export rel)))
    s.relations

let bytes_of_payload payload =
  let w = Binio.writer () in
  Buffer.add_string w magic;
  Binio.int_ w format_version;
  Binio.int_ w (String.length payload);
  Buffer.add_string w (Digest.string payload);
  Buffer.add_string w payload;
  Binio.contents w

let to_bytes s =
  let body = Binio.writer () in
  write_payload body s;
  bytes_of_payload (Binio.contents body)

(* -- loading ------------------------------------------------------------ *)

(* Declare physical domains (name, width, levels) in order in a fresh
   universe.  Declaration order fixes the variable order, and saving
   renumbers the declared levels densely, so each domain must land
   exactly at the levels it records. *)
let declare_physdoms u specs =
  let show levels =
    String.concat "; " (Array.to_list (Array.map string_of_int levels))
  in
  List.map
    (fun (name, width, recorded) ->
      let p = Phys.declare u ~name ~bits:width in
      if Phys.levels p <> recorded then
        corrupt "physdom %s: recorded levels [%s], declared at [%s]" name
          (show recorded) (show (Phys.levels p));
      (name, p))
    specs

(* Verify the framing (magic, version, length, checksum) and return the
   raw payload. *)
let payload_of_bytes data =
  try
    if String.length data < 8 || String.sub data 0 8 <> magic then
      corrupt "bad magic (not a jedd snapshot)";
    let r = Binio.reader ~pos:8 data in
    let version = Binio.read_int r in
    if version <> format_version then
      corrupt "unsupported snapshot format version %d (expected %d)" version
        format_version;
    let payload_len = Binio.read_int r in
    let digest =
      Binio.need r 16;
      let d = String.sub data r.Binio.pos 16 in
      r.Binio.pos <- r.Binio.pos + 16;
      d
    in
    if Binio.remaining r <> payload_len then
      corrupt "payload length mismatch (header says %d bytes, file has %d)"
        payload_len (Binio.remaining r);
    let payload = String.sub data r.Binio.pos payload_len in
    let found = Digest.string payload in
    if found <> digest then
      corrupt
        "checksum mismatch (snapshot body is damaged): header records %s, \
         body hashes to %s"
        (Digest.to_hex digest) (Digest.to_hex found);
    payload
  with Binio.Truncated -> corrupt "snapshot is truncated"

let of_bytes ?(node_capacity = 1 lsl 16) ?node_limit
    ?backend:(_ : [ `Incore ] option) ?(freeze = false) data =
  try
    let payload = payload_of_bytes data in
    let r = Binio.reader payload in
    (* payload *)
    let meta =
      Binio.read_list r (fun r ->
          let k = Binio.read_string r in
          let v = Binio.read_string r in
          (k, v))
    in
    let domains =
      Binio.read_list r (fun r ->
          let name = Binio.read_string r in
          let size = Binio.read_int r in
          if size < 1 then corrupt "domain %s has non-positive size %d" name size;
          (name, Dom.declare ~name ~size ()))
    in
    let find_domain name =
      match List.assoc_opt name domains with
      | Some d -> d
      | None -> corrupt "attribute references unknown domain %s" name
    in
    let attrs =
      Binio.read_list r (fun r ->
          let name = Binio.read_string r in
          let dname = Binio.read_string r in
          (name, Attr.declare ~name ~domain:(find_domain dname)))
    in
    let phys_specs =
      Binio.read_list r (fun r ->
          let name = Binio.read_string r in
          let width = Binio.read_int r in
          let levels = Binio.read_int_array r in
          if width < 1 then corrupt "physdom %s has non-positive width" name;
          if Array.length levels <> width then
            corrupt "physdom %s: %d recorded levels for width %d" name
              (Array.length levels) width;
          (name, width, levels))
    in
    let u = U.create ~node_capacity ?node_limit () in
    let physdoms = declare_physdoms u phys_specs in
    let find_attr name =
      match List.assoc_opt name attrs with
      | Some a -> a
      | None -> corrupt "relation schema references unknown attribute %s" name
    in
    let find_phys name =
      match List.assoc_opt name physdoms with
      | Some p -> p
      | None ->
        corrupt "relation schema references unknown physical domain %s" name
    in
    let relations =
      Binio.read_list r (fun r ->
          let name = Binio.read_string r in
          let entries =
            Binio.read_list r (fun r ->
                let aname = Binio.read_string r in
                let pname = Binio.read_string r in
                { Schema.attr = find_attr aname; phys = find_phys pname })
          in
          let schema =
            try Schema.make entries
            with Invalid_argument msg ->
              corrupt "relation %s has an invalid schema: %s" name msg
          in
          let count = Binio.read_int r in
          let dump = read_dump r in
          let levels = Schema.levels schema in
          List.iter
            (fun l ->
              if not (Array.mem l levels) then
                corrupt "relation %s has BDD level %d outside its schema" name
                  l)
            (Lv.support dump);
          let rel =
            try R.import u schema dump
            with Lv.Malformed msg ->
              corrupt "relation %s has a malformed BDD dump: %s" name msg
          in
          let actual = R.size rel in
          if actual <> count then
            corrupt
              "relation %s does not round-trip: %d tuples recorded, %d \
               reconstructed"
              name count actual;
          (name, rel))
    in
    if not (Binio.at_end r) then corrupt "trailing bytes after snapshot body";
    (* Everything the snapshot pins is referenced by now; freezing here
       compacts reconstruction garbage and lands the universe directly
       in read-only serving mode. *)
    if freeze then U.freeze u;
    { u; meta; domains; attrs; physdoms; relations }
  with Binio.Truncated -> corrupt "snapshot is truncated"

(* -- copying ------------------------------------------------------------ *)

(* [of_bytes (to_bytes s)] without the bytes: the same declarations and
   dense levels, each root copied straight into the fresh manager
   through one memo, so the relations share nodes there as they do in
   [s].  The table starts at the manager's minimum and grows to fit the
   copy. *)
let copy ?(freeze = false) s =
  let remap = dense_remap s.physdoms in
  let u = U.create ~node_capacity:Jedd_bdd.Manager.min_node_capacity () in
  let physdoms =
    declare_physdoms u
      (List.map
         (fun (name, p) ->
           ( name,
             Phys.width p,
             Array.map (fun l -> remap.(l)) (Phys.levels p) ))
         s.physdoms)
  in
  let tr =
    Jedd_bdd.Transfer.create ~src:(U.manager s.u) ~dst:(U.manager u)
      ~levels:remap
  in
  let relations =
    List.map
      (fun (name, rel) ->
        let schema =
          Schema.make
            (List.map
               (fun (e : Schema.entry) ->
                 let pname = declared_phys_name s name e in
                 { e with phys = List.assoc pname physdoms })
               (Schema.entries (R.schema rel)))
        in
        (* counted first, as [to_bytes] does, so that a root outside
           its schema is refused with the same message *)
        let expected = R.size rel in
        let rel' =
          try R.transfer tr u schema rel
          with Jedd_bdd.Transfer.Unmapped_level _ -> outside_levels name
        in
        let actual = R.size rel' in
        if actual <> expected then
          corrupt "relation %s does not survive the copy: %d tuples, %d copied"
            name expected actual;
        (name, rel'))
      s.relations
  in
  if freeze then U.freeze u;
  {
    u;
    meta = recorded_meta s;
    domains = s.domains;
    attrs = s.attrs;
    physdoms;
    relations;
  }

(* -- convenience -------------------------------------------------------- *)

let save_file path s =
  let data = to_bytes s in
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir ".snapshot" ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc data;
  close_out oc;
  Sys.rename tmp path

let load_file ?node_capacity ?node_limit ?freeze path =
  let data = In_channel.with_open_bin path In_channel.input_all in
  try of_bytes ?node_capacity ?node_limit ?freeze data
  with Corrupt msg -> corrupt "%s: %s" path msg

let meta_value s key = List.assoc_opt key s.meta

(* Relation lookup with qualified-name convenience: an exact match
   wins; otherwise a name with no dot matches "Class.name" when the
   suffix is unambiguous. *)
let find_relation s name =
  match List.assoc_opt name s.relations with
  | Some r -> Some r
  | None ->
    if String.contains name '.' then None
    else begin
      let suffix = "." ^ name in
      match
        List.filter
          (fun (n, _) -> String.ends_with ~suffix n)
          s.relations
      with
      | [ (_, r) ] -> Some r
      | _ -> None
    end
