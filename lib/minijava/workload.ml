(* Deterministic synthetic-workload generator.

   The paper evaluates on javac, compress, sablecc and jedit through the
   Soot framework; those inputs are not redistributable, so this module
   generates whole programs with the same *structural* knobs — class
   count, hierarchy depth, override density, allocation/copy/field/call
   statement mix — at per-benchmark scales chosen to preserve the
   paper's relative benchmark sizes (compress small, jedit largest).
   Generation is seeded and reproducible. *)

type profile = {
  name : string;
  classes : int;
  sigs_per_class : int;  (* roughly; also controls overriding *)
  methods_scale : int;
  vars_per_method : int;
  heap_per_method : int;
  fields : int;
  assign_factor : int;  (* copies per method *)
  field_ops_per_method : int;
  calls_per_method : int;
  seed : int;
}

(* Scales follow the paper's Table 2 ordering: compress is the small
   SPEC benchmark, javac mid-sized, sablecc similar, jedit largest. *)
let profiles =
  [
    {
      name = "javac";
      classes = 90;
      sigs_per_class = 4;
      methods_scale = 3;
      vars_per_method = 6;
      heap_per_method = 2;
      fields = 40;
      assign_factor = 8;
      field_ops_per_method = 3;
      calls_per_method = 3;
      seed = 11;
    };
    {
      name = "compress";
      classes = 30;
      sigs_per_class = 3;
      methods_scale = 2;
      vars_per_method = 5;
      heap_per_method = 2;
      fields = 16;
      assign_factor = 6;
      field_ops_per_method = 2;
      calls_per_method = 2;
      seed = 22;
    };
    {
      name = "javac-13";
      classes = 110;
      sigs_per_class = 4;
      methods_scale = 3;
      vars_per_method = 6;
      heap_per_method = 2;
      fields = 48;
      assign_factor = 8;
      field_ops_per_method = 3;
      calls_per_method = 3;
      seed = 33;
    };
    {
      name = "sablecc";
      classes = 120;
      sigs_per_class = 3;
      methods_scale = 3;
      vars_per_method = 5;
      heap_per_method = 2;
      fields = 40;
      assign_factor = 7;
      field_ops_per_method = 2;
      calls_per_method = 3;
      seed = 44;
    };
    {
      name = "jedit";
      classes = 160;
      sigs_per_class = 4;
      methods_scale = 3;
      vars_per_method = 7;
      heap_per_method = 3;
      fields = 64;
      assign_factor = 9;
      field_ops_per_method = 3;
      calls_per_method = 4;
      seed = 55;
    };
  ]

let tiny =
  {
    name = "tiny";
    classes = 6;
    sigs_per_class = 2;
    methods_scale = 2;
    vars_per_method = 3;
    heap_per_method = 1;
    fields = 4;
    assign_factor = 3;
    field_ops_per_method = 1;
    calls_per_method = 1;
    seed = 7;
  }

let find_profile name =
  let all = tiny :: profiles in
  match List.find_opt (fun p -> p.name = name) all with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown benchmark %s (known: %s)" name
         (String.concat ", " (List.map (fun p -> p.name) all)))

let profile_named name =
  match find_profile name with
  | Ok p -> p
  | Error msg -> invalid_arg ("Workload.profile_named: " ^ msg)

let generate (p : profile) : Program.t =
  let st = Random.State.make [| p.seed; p.classes; 0x6a65 |] in
  let rand n = if n <= 0 then 0 else Random.State.int st n in
  let n_classes = p.classes in
  let n_sigs = max 2 (p.classes * p.sigs_per_class / 3) in
  (* hierarchy: a random forest rooted at class 0 *)
  let extend =
    List.init (n_classes - 1) (fun i ->
        let sub = i + 1 in
        (sub, rand sub))
  in
  (* method declarations: class 0 declares a base set of signatures so
     that resolution up the chain terminates; others override a random
     subset *)
  let declares = ref [] in
  let method_class = ref [] in
  let method_sig = ref [] in
  let n_methods = ref 0 in
  let declare cls sg =
    let m = !n_methods in
    incr n_methods;
    declares := (cls, sg, m) :: !declares;
    method_class := cls :: !method_class;
    method_sig := sg :: !method_sig;
    m
  in
  let base_sigs = min n_sigs (p.sigs_per_class * 2) in
  for sg = 0 to base_sigs - 1 do
    ignore (declare 0 sg)
  done;
  for cls = 1 to n_classes - 1 do
    let count = 1 + rand p.methods_scale in
    let seen = Hashtbl.create 8 in
    for _ = 1 to count do
      let sg = rand n_sigs in
      if not (Hashtbl.mem seen sg) then begin
        Hashtbl.add seen sg ();
        ignore (declare cls sg)
      end
    done
  done;
  let n_methods = !n_methods in
  let method_class = Array.of_list (List.rev !method_class) in
  let method_sig = Array.of_list (List.rev !method_sig) in
  (* variables and statements per method *)
  let n_vars = n_methods * p.vars_per_method in
  let var_method =
    Array.init n_vars (fun v -> v / p.vars_per_method)
  in
  let vars_of m =
    List.init p.vars_per_method (fun i -> (m * p.vars_per_method) + i)
  in
  let heap = ref [] in
  let heap_type = ref [] in
  let n_heap = ref 0 in
  let allocs = ref [] in
  let assigns = ref [] in
  let stores = ref [] in
  let loads = ref [] in
  let calls = ref [] in
  let n_calls = ref 0 in
  for m = 0 to n_methods - 1 do
    let vs = Array.of_list (vars_of m) in
    let var () = vs.(rand (Array.length vs)) in
    (* allocations *)
    let first_alloc_var = ref (-1) in
    for _ = 1 to p.heap_per_method do
      let h = !n_heap in
      incr n_heap;
      let t = rand n_classes in
      heap := h :: !heap;
      heap_type := t :: !heap_type;
      let av = var () in
      if !first_alloc_var < 0 then first_alloc_var := av;
      allocs := (av, h) :: !allocs
    done;
    (* copies — a mix of local and cross-method (parameter passing) *)
    for _ = 1 to p.assign_factor do
      let src = var () in
      let dst = if rand 4 = 0 then rand n_vars else var () in
      if src <> dst then assigns := (src, dst) :: !assigns
    done;
    (* field operations *)
    for _ = 1 to p.field_ops_per_method do
      let f = rand (max 1 p.fields) in
      if rand 2 = 0 then stores := (var (), var (), f) :: !stores
      else loads := (var (), f, var ()) :: !loads
    done;
    (* virtual call sites; make about half the receivers flow from an
       allocation so resolution has something to chew on *)
    for _ = 1 to p.calls_per_method do
      let cs = !n_calls in
      incr n_calls;
      let recv = var () in
      if rand 4 = 0 && !first_alloc_var >= 0 && !first_alloc_var <> recv then
        assigns := (!first_alloc_var, recv) :: !assigns;
      calls :=
        {
          Program.cs_id = cs;
          cs_recv = recv;
          cs_sig = rand n_sigs;
          cs_in_method = m;
        }
        :: !calls
    done
  done;
  {
    Program.n_classes;
    n_sigs;
    n_methods;
    n_vars;
    n_heap = !n_heap;
    n_fields = max 1 p.fields;
    extend;
    declares = List.rev !declares;
    method_class;
    method_sig;
    var_method;
    heap_type = Array.of_list (List.rev !heap_type);
    allocs = List.rev !allocs;
    assigns = List.rev !assigns;
    stores = List.rev !stores;
    loads = List.rev !loads;
    calls = List.rev !calls;
    (* entry points: the root class's base methods, like a main class
       plus the callbacks a driver invokes *)
    entry_methods = List.init (min base_sigs n_methods) (fun i -> i);
  }
