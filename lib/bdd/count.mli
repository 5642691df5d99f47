(** Counting and measurement: satisfying-assignment counts, node counts,
    and per-level shapes (the quantity Jedd's profiler charts, §4.3). *)

type man = Manager.t
type node = Manager.node

val satcount : man -> node -> over:int list -> int
(** [satcount m f ~over] is the number of satisfying assignments of [f]
    over exactly the variables in [over].  [f] must not depend on any
    variable outside [over] ([Invalid_argument] otherwise).  Counts are
    exact native integers; they overflow above 2{^62} assignments, far
    beyond any relation this system builds. *)

val satcount_all : man -> node -> int
(** Count over all variables currently allocated in the manager. *)

val nodecount : man -> node -> int
(** Number of distinct internal nodes reachable from [f] (terminals
    excluded), i.e. the "size" the paper's profiler reports. *)

val nodecount_many : man -> node list -> int
(** Size of the shared graph of several roots. *)

val shape : man -> node -> int array
(** [shape m f] is the number of reachable nodes at each level — the
    profile the paper's browsable profiler draws. Length {!Manager.num_vars}. *)
