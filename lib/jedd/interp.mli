(** The Jedd execution engine: instantiates a compiled program against
    the relation runtime and runs its methods.

    In the paper's toolchain this stage is "javac + JVM + Jedd runtime":
    jeddc's generated Java executes relational operations through the
    runtime library.  Here the program is lowered once by [Lower], and
    a register machine executes that IR: every operation, layout,
    replace, free and liveness kill is the one written in the
    instruction stream, the same code the refcount prover (JL100), the
    replace audit (JL007/JL008) and [Emit_java] see.  Each relational
    operation carries the source position of the expression it
    computes as its profiler label.

    Memory management follows §4.2: each variable is a container holding
    its own reference-counted handle; assignments release the overwritten
    handle immediately; method exit releases locals and parameters;
    temporaries are freed as soon as they are consumed.

    With [JEDD_CHECK_IR] set (to anything but [0]) at instantiation,
    every executed instruction is also stepped through
    [Ir.Discipline], the rules the static prover checks. *)

type t

val instantiate :
  ?node_capacity:int ->
  ?node_limit:int ->
  Lower.compiled ->
  t
(** Create the universe, declare the physical domains at their computed
    widths in declaration order, declare domains and attributes, lower
    every method, and initialise every field to 0B (then run field
    initialisers). *)

val universe : t -> Jedd_relation.Universe.t

(** {2 Registry access for host code} *)

val domain : t -> string -> Jedd_relation.Domain.t
val attribute : t -> string -> Jedd_relation.Attribute.t
val physdom : t -> string -> Jedd_relation.Physdom.t

val schema_of_var : t -> string -> Jedd_relation.Schema.t
(** The assigned layout of a field or parameter, by qualified name
    ("Cls.field" or "Cls.meth.param"). *)

val registries :
  t ->
  (string * Jedd_relation.Domain.t) list
  * (string * Jedd_relation.Attribute.t) list
  * (string * Jedd_relation.Physdom.t) list
(** All declared (domains, attributes, physical domains) with their
    qualified-free names, in declaration order — what the snapshot
    layer persists. *)

val fields : t -> (string * Jedd_relation.Relation.t) list
(** Every field with its current relation, sorted by qualified name.
    The relations are the live containers, not copies. *)

val get_field : t -> string -> Jedd_relation.Relation.t
val set_field : t -> string -> Jedd_relation.Relation.t -> unit
(** The relation is coerced to the field's layout. *)

(** {2 Execution} *)

type value = VRel of Jedd_relation.Relation.t | VObj of int

exception Runtime_error of string
(** Raised by [call], naming the method, for an unknown method, a wrong
    number or kind of arguments, a void method used for its value, and
    (under [JEDD_CHECK_IR]) a register-discipline violation; and by the
    accessors above for an unknown name. *)

val call : t -> string -> value list -> Jedd_relation.Relation.t option
(** [call t "Cls.meth" args] runs a method.  Relation arguments are
    owned by the callee and coerced to the parameter layouts.  Returns
    the return value for relation-returning methods. *)

val methods : t -> (string, Ir.cmethod) Hashtbl.t
(** The lowered code [call] dispatches through, by qualified name. *)

val set_print_hook : t -> (string -> unit) -> unit
(** Where [print e;] statements go (default: stdout). *)
