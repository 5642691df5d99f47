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

let anchor op label =
  let clean s =
    String.map (fun c -> if c = ' ' || c = ':' || c = ',' then '_' else c) s
  in
  Printf.sprintf "op_%s_%s" (clean op) (clean label)

let to_html rec_ =
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
  out "<h2>Overview</h2><table><tr><th class=l>operation</th><th \
       class=l>label</th><th>executions</th><th>total ms</th><th>max \
       result nodes</th><th>cache hits</th><th>cache misses</th><th>hit \
       rate</th><th>GCs</th><th>GC ms</th></tr>";
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
         <td>%d</td><td>%s</td><td>%d</td><td>%.3f</td></tr>"
        (anchor s.op s.label) (escape_html s.op) (escape_html s.label)
        s.executions s.total_millis s.max_result_nodes s.cache_hits
        s.cache_misses
        (hit_rate s.cache_hits s.cache_misses)
        s.gcs s.gc_millis)
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
                String.concat ", "
                  (List.map
                     (fun (t : U.tag_delta) ->
                       Printf.sprintf "%s %d/%d" (escape_html t.tag) t.hits
                         (t.hits + t.misses))
                     d.U.per_tag)
                ^
                if d.U.gcs > 0 then
                  Printf.sprintf " (%d GC, %.2f ms)" d.U.gcs d.U.gc_millis
                else ""
              | None -> "")
              (match e.U.shapes with
              | Some (result_shape, _) -> shape_svg result_shape
              | None -> ""))
        (Recorder.rows rec_);
      out "</table>")
    summaries;
  out "</body></html>";
  Buffer.contents buf

let to_csv rec_ =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "seq,op,label,millis,operand_nodes,result_nodes,result_tuples,\
     cache_hits,cache_misses,gcs,gc_millis\n";
  List.iter
    (fun (r : Recorder.row) ->
      let e = r.event in
      let hits, misses, gcs, gc_ms =
        match e.U.bdd with
        | Some d -> (d.U.cache_hits, d.U.cache_misses, d.U.gcs, d.U.gc_millis)
        | None -> (0, 0, 0, 0.0)
      in
      Buffer.add_string buf
        (Printf.sprintf "%d,%s,\"%s\",%.4f,\"%s\",%d,%d,%d,%d,%d,%.4f\n"
           r.seq e.U.op e.U.label e.U.millis
           (String.concat ";" (List.map string_of_int e.U.operand_nodes))
           e.U.result_nodes e.U.result_tuples hits misses gcs gc_ms))
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
     gcs INTEGER, gc_millis REAL);\n";
  List.iter
    (fun (r : Recorder.row) ->
      let e = r.event in
      let hits, misses, gcs, gc_ms =
        match e.U.bdd with
        | Some d -> (d.U.cache_hits, d.U.cache_misses, d.U.gcs, d.U.gc_millis)
        | None -> (0, 0, 0, 0.0)
      in
      Buffer.add_string buf
        (Printf.sprintf
           "INSERT INTO jedd_ops VALUES (%d, '%s', '%s', %.4f, '%s', %d, %d, \
            %d, %d, %d, %.4f);\n"
           r.seq (escape_sql e.U.op) (escape_sql e.U.label) e.U.millis
           (String.concat ";" (List.map string_of_int e.U.operand_nodes))
           e.U.result_nodes e.U.result_tuples hits misses gcs gc_ms))
    (Recorder.rows rec_);
  Buffer.contents buf

let write_files rec_ ~dir ~prefix =
  let write ext content =
    let path = Filename.concat dir (prefix ^ "." ^ ext) in
    let oc = open_out path in
    output_string oc content;
    close_out oc;
    path
  in
  [ write "html" (to_html rec_); write "csv" (to_csv rec_);
    write "sql" (to_sql rec_) ]
