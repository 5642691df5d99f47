(** Pretty-printer for jeddc's output: the Java code the paper's
    translator generates (Figure 1, ".java" box).

    It prints [Lower]'s IR, the code [Interp] executes: relations become
    [jedd.internal.RelationContainer] fields and locals (§4.2); every
    relational operation becomes a call into the runtime
    ([Jedd.v().join(...)], [Jedd.v().compose(...)], ...), with a
    [Jedd.v().replace(...)] exactly where the assignment stage kept a
    replace and a [kill()] where a local's live range ends.  Each
    register is printed inline where it is read, so expressions nest as
    in the source.  The output is documentation-grade Java (it is not
    compiled here), close enough to what the original jeddc emitted to
    read side-by-side with the paper. *)

val emit_program : Driver.compiled -> string
(** All classes of the compiled program. *)

val emit_method : Driver.compiled -> string -> string
(** One method by qualified name ("Cls.meth"). *)
