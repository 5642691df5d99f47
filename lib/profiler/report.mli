(** Render a {!Recorder}'s contents the three ways the paper's profiler
    does: a browsable HTML report (overview → per-operation drill-down →
    per-execution BDD shape charts), a CSV table, and the SQL dump that
    substitutes for the paper's SQLite database. *)

val to_html : Recorder.t -> string
(** A self-contained HTML page: overview table sorted by cost, one
    anchor-linked section per operation with a line per execution, and
    inline SVG bar charts of BDD shapes when shape profiling was on. *)

val to_csv : Recorder.t -> string
(** One row per recorded execution. *)

val to_sql : Recorder.t -> string
(** [CREATE TABLE] + [INSERT] statements loadable into any SQL engine —
    the format the paper's runtime wrote for its CGI views. *)

val write_files : Recorder.t -> dir:string -> prefix:string -> string list
(** Write [prefix.html], [prefix.csv] and [prefix.sql] under [dir];
    returns the paths written. *)
