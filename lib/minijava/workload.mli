(** Deterministic synthetic whole-program generator.

    The paper evaluates on javac, compress, sablecc and jedit via Soot;
    those inputs are not redistributable, so this module generates
    programs with the same structural knobs (hierarchy shape, override
    density, statement mix) at per-benchmark scales chosen to preserve
    the paper's relative benchmark sizes.  Same profile, same program —
    generation is seeded. *)

type profile = {
  name : string;
  classes : int;
  sigs_per_class : int;
  methods_scale : int;
  vars_per_method : int;
  heap_per_method : int;
  fields : int;
  assign_factor : int;
  field_ops_per_method : int;
  calls_per_method : int;
  seed : int;
}

val profiles : profile list
(** The five Table 2 benchmarks: javac, compress, javac-13, sablecc,
    jedit (ordered as in the paper). *)

val tiny : profile
(** A few-classes profile for fast tests. *)

val find_profile : string -> (profile, string) result
(** {!tiny} or one of {!profiles}, by name; the error names the known
    profiles. *)

val profile_named : string -> profile
(** {!find_profile}, raising [Invalid_argument] for unknown names. *)

val generate : profile -> Program.t
