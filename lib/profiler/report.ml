module U = Jedd_relation.Universe

let escape_html s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '&' -> Buffer.add_string buf "&amp;"
      | '"' -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let shape_svg shape =
  let n = Array.length shape in
  let maxc = Array.fold_left max 1 shape in
  let bar_w = 6 and height = 80 in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "<svg width=\"%d\" height=\"%d\" style=\"background:#f8f8f8\">"
       (n * bar_w) height);
  Array.iteri
    (fun i c ->
      if c > 0 then
        let h = max 1 (c * (height - 4) / maxc) in
        Buffer.add_string buf
          (Printf.sprintf
             "<rect x=\"%d\" y=\"%d\" width=\"%d\" height=\"%d\" \
              fill=\"#4477aa\"><title>level %d: %d nodes</title></rect>"
             (i * bar_w) (height - h) (bar_w - 1) h i c))
    shape;
  Buffer.add_string buf "</svg>";
  Buffer.contents buf

(* Variable-order section: the live-node histogram over the current
   order, node attribution per physical-domain block, and the log of
   reorder passes — the §3.3.1 ordering lever made observable. *)
let order_html engine =
  let module R = Jedd_reorder.Reorder in
  let buf = Buffer.create 2048 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out "<h2>Variable order</h2>";
  out "<h3>Live nodes per level</h3>%s"
    (shape_svg (R.level_histogram engine));
  out
    "<h3>Per-block attribution</h3><table><tr><th class=l>block</th>\
     <th>live nodes</th></tr>";
  List.iter
    (fun (name, nodes) ->
      out "<tr><td class=l>%s</td><td>%d</td></tr>" (escape_html name) nodes)
    (R.block_attribution engine);
  out "</table>";
  let events = R.events engine in
  out "<h3>Reorder passes</h3>";
  if events = [] then out "<p>none</p>"
  else begin
    out
      "<table><tr><th class=l>trigger</th><th class=l>strategy</th>\
       <th>swaps</th><th>aborts</th><th>nodes before</th><th>nodes \
       after</th><th>ms</th></tr>";
    List.iter
      (fun (e : R.event) ->
        out
          "<tr><td class=l>%s</td><td class=l>%s</td><td>%d</td><td>%d</td>\
           <td>%d</td><td>%d</td><td>%.3f</td></tr>"
          (escape_html e.trigger) (escape_html e.strategy) e.swaps e.aborts
          e.nodes_before e.nodes_after e.millis)
      events;
    out "</table>"
  end;
  Buffer.contents buf

let anchor op label =
  let clean s =
    String.map (fun c -> if c = ' ' || c = ':' || c = ',' then '_' else c) s
  in
  Printf.sprintf "op_%s_%s" (clean op) (clean label)

let to_html ?engine rec_ =
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  out
    "<!DOCTYPE html><html><head><meta charset=\"utf-8\"><title>Jedd \
     profile</title><style>body{font-family:sans-serif;margin:2em} \
     table{border-collapse:collapse} td,th{border:1px solid \
     #ccc;padding:4px 10px;text-align:right} th{background:#eee} \
     td.l,th.l{text-align:left}</style></head><body>";
  out "<h1>Jedd profiler report</h1>";
  out "<p>%d operations recorded.</p>" (Recorder.total_operations rec_);
  (* Overview: the paper's top-level profile view, plus the BDD-layer
     cache behaviour attributed to each relational operation. *)
  let summaries = Recorder.summaries rec_ in
  (* The terminal-store columns appear only when some operation ran on
     the mtbdd backend — boolean-only profiles keep the original table. *)
  let has_mt =
    List.exists
      (fun (s : Recorder.summary) ->
        s.mt_cache_hits + s.mt_cache_misses + s.mt_terminals > 0)
      summaries
  in
  out "<h2>Overview</h2><table><tr><th class=l>operation</th><th \
       class=l>label</th><th>executions</th><th>total ms</th><th>max \
       result nodes</th><th>cache hits</th><th>cache misses</th><th>hit \
       rate</th><th>GCs</th><th>GC ms</th><th>reorders</th><th>swap \
       count</th><th>reorder ms</th>%s</tr>"
    (if has_mt then
       "<th>terminal cache hits</th><th>terminal cache misses</th>\
        <th>terminal hit rate</th><th>distinct terminals</th>"
     else "");
  let hit_rate hits misses =
    if hits + misses = 0 then "-"
    else
      Printf.sprintf "%.1f%%"
        (100.0 *. float_of_int hits /. float_of_int (hits + misses))
  in
  List.iter
    (fun (s : Recorder.summary) ->
      out
        "<tr><td class=l><a href=\"#%s\">%s</a></td><td \
         class=l>%s</td><td>%d</td><td>%.3f</td><td>%d</td><td>%d</td>\
         <td>%d</td><td>%s</td><td>%d</td><td>%.3f</td><td>%d</td>\
         <td>%d</td><td>%.3f</td>%s</tr>"
        (anchor s.op s.label) (escape_html s.op) (escape_html s.label)
        s.executions s.total_millis s.max_result_nodes s.cache_hits
        s.cache_misses
        (hit_rate s.cache_hits s.cache_misses)
        s.gcs s.gc_millis s.reorders s.reorder_swaps s.reorder_millis
        (if has_mt then
           Printf.sprintf "<td>%d</td><td>%d</td><td>%s</td><td>%d</td>"
             s.mt_cache_hits s.mt_cache_misses
             (hit_rate s.mt_cache_hits s.mt_cache_misses)
             s.mt_terminals
         else ""))
    summaries;
  out "</table>";
  (* Drill-down: one section per operation. *)
  List.iter
    (fun (s : Recorder.summary) ->
      out "<h2 id=\"%s\">%s %s</h2>" (anchor s.op s.label) (escape_html s.op)
        (escape_html s.label);
      out
        "<table><tr><th>#</th><th>ms</th><th>operand nodes</th><th>result \
         nodes</th><th>result tuples</th><th class=l>cache (per \
         kernel)</th><th class=l>shape</th></tr>";
      List.iter
        (fun (r : Recorder.row) ->
          let e = r.event in
          if e.U.op = s.op && e.U.label = s.label then
            out
              "<tr><td>%d</td><td>%.3f</td><td>%s</td><td>%d</td><td>%d</td>\
               <td class=l>%s</td><td class=l>%s</td></tr>"
              r.seq e.U.millis
              (String.concat ", " (List.map string_of_int e.U.operand_nodes))
              e.U.result_nodes e.U.result_tuples
              (match e.U.bdd with
              | Some d ->
                (* boolean tags first, then the mt-* terminal kernels *)
                String.concat ", "
                  (List.map
                     (fun (t : U.tag_delta) ->
                       Printf.sprintf "%s %d/%d" (escape_html t.tag) t.hits
                         (t.hits + t.misses))
                     (d.U.per_tag @ d.U.mt_per_tag))
                ^ (if d.U.gcs > 0 then
                     Printf.sprintf " (%d GC, %.2f ms)" d.U.gcs d.U.gc_millis
                   else "")
                ^
                if d.U.mt_terminals > 0 then
                  Printf.sprintf " [%d terminals]" d.U.mt_terminals
                else ""
              | None -> "")
              (match e.U.shapes with
              | Some (result_shape, _) -> shape_svg result_shape
              | None -> ""))
        (Recorder.rows rec_);
      out "</table>")
    summaries;
  (match engine with
  | Some e -> Buffer.add_string buf (order_html e)
  | None -> ());
  out "</body></html>";
  Buffer.contents buf

let to_csv rec_ =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "seq,op,label,millis,operand_nodes,result_nodes,result_tuples,\
     cache_hits,cache_misses,gcs,gc_millis,reorders,reorder_swaps,\
     reorder_millis,mt_cache_hits,mt_cache_misses,mt_distinct_terminals\n";
  List.iter
    (fun (r : Recorder.row) ->
      let e = r.event in
      let hits, misses, gcs, gc_ms, reorders, rswaps, r_ms =
        match e.U.bdd with
        | Some d ->
          ( d.U.cache_hits,
            d.U.cache_misses,
            d.U.gcs,
            d.U.gc_millis,
            d.U.reorders,
            d.U.reorder_swaps,
            d.U.reorder_millis )
        | None -> (0, 0, 0, 0.0, 0, 0, 0.0)
      in
      let mt_hits, mt_misses, mt_terms =
        match e.U.bdd with
        | Some d -> (d.U.mt_cache_hits, d.U.mt_cache_misses, d.U.mt_terminals)
        | None -> (0, 0, 0)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "%d,%s,\"%s\",%.4f,\"%s\",%d,%d,%d,%d,%d,%.4f,%d,%d,%.4f,%d,%d,%d\n"
           r.seq e.U.op e.U.label e.U.millis
           (String.concat ";" (List.map string_of_int e.U.operand_nodes))
           e.U.result_nodes e.U.result_tuples hits misses gcs gc_ms reorders
           rswaps r_ms mt_hits mt_misses mt_terms))
    (Recorder.rows rec_);
  Buffer.contents buf

let escape_sql s =
  String.concat "''" (String.split_on_char '\'' s)

let to_sql rec_ =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "CREATE TABLE IF NOT EXISTS jedd_ops (seq INTEGER PRIMARY KEY, op TEXT, \
     label TEXT, millis REAL, operand_nodes TEXT, result_nodes INTEGER, \
     result_tuples INTEGER, cache_hits INTEGER, cache_misses INTEGER, \
     gcs INTEGER, gc_millis REAL, reorders INTEGER, reorder_swaps INTEGER, \
     reorder_millis REAL);\n";
  List.iter
    (fun (r : Recorder.row) ->
      let e = r.event in
      let hits, misses, gcs, gc_ms, reorders, rswaps, r_ms =
        match e.U.bdd with
        | Some d ->
          ( d.U.cache_hits,
            d.U.cache_misses,
            d.U.gcs,
            d.U.gc_millis,
            d.U.reorders,
            d.U.reorder_swaps,
            d.U.reorder_millis )
        | None -> (0, 0, 0, 0.0, 0, 0, 0.0)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "INSERT INTO jedd_ops VALUES (%d, '%s', '%s', %.4f, '%s', %d, %d, \
            %d, %d, %d, %.4f, %d, %d, %.4f);\n"
           r.seq (escape_sql e.U.op) (escape_sql e.U.label) e.U.millis
           (String.concat ";" (List.map string_of_int e.U.operand_nodes))
           e.U.result_nodes e.U.result_tuples hits misses gcs gc_ms reorders
           rswaps r_ms))
    (Recorder.rows rec_);
  Buffer.contents buf

let write_files ?engine rec_ ~dir ~prefix =
  let write ext content =
    let path = Filename.concat dir (prefix ^ "." ^ ext) in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  [ write "html" (to_html ?engine rec_); write "csv" (to_csv rec_);
    write "sql" (to_sql rec_) ]
