type t = { name : string; size : int; printer : int -> string; uid : int }

let counter = ref 0

let declare ~name ~size ?printer () =
  if size <= 0 then invalid_arg "Domain.declare: size must be positive";
  incr counter;
  let printer =
    match printer with
    | Some p -> p
    | None -> fun i -> Printf.sprintf "%s#%d" name i
  in
  { name; size; printer; uid = !counter }

let name d = d.name
let size d = d.size
let print_obj d i = d.printer i

let bits d =
  (* [n * 2] would wrap past [max_int / 2]; every size fits 62 bits *)
  let rec go n acc =
    if n >= d.size then acc
    else if n > max_int / 2 then acc + 1
    else go (n * 2) (acc + 1)
  in
  max 1 (go 1 0)

let equal a b = a.uid = b.uid
