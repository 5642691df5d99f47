type man = Manager.t
type node = Manager.node

(* The block's variable levels, MSB first.  A level never changes once
   allocated, so a block can hold its levels directly. *)
type block = { levels : int array }

let bits_for size =
  if size <= 0 then invalid_arg "Fdd.extdomain: size must be positive";
  let rec go n acc = if n >= size then acc else go (n * 2) (acc + 1) in
  max 1 (go 1 0)

let extdomain_bits m nbits =
  if nbits <= 0 then invalid_arg "Fdd.extdomain_bits: width must be positive";
  { levels = Array.init nbits (fun _ -> Manager.new_var m) }

let extdomain m size = extdomain_bits m (bits_for size)

let extdomains_interleaved m sizes =
  match sizes with
  | [] -> []
  | _ ->
    let widths = List.map bits_for sizes in
    let w = List.fold_left max 1 widths in
    let blocks = List.map (fun wd -> Array.make wd 0) widths in
    (* Round-robin over the significance ranks, MSB first; narrower
       blocks simply stop contributing bits once exhausted. *)
    for bit = 0 to w - 1 do
      List.iter2
        (fun levels wd -> if bit < wd then levels.(bit) <- Manager.new_var m)
        blocks widths
    done;
    List.map (fun levels -> { levels }) blocks

let width b = Array.length b.levels
let size b = 1 lsl width b
let levels b = Array.copy b.levels

let ithvar m b v =
  if v < 0 || v >= size b then invalid_arg "Fdd.ithvar: value out of range";
  let w = width b in
  let assignment =
    List.init w (fun i ->
        (* bit i of the array is the (w-1-i)-th binary digit *)
        (b.levels.(i), (v lsr (w - 1 - i)) land 1 = 1))
  in
  Ops.cube m assignment

let domain_cube m b = Quant.varset m (Array.to_list b.levels)

let less_than_const m b k =
  if k <= 0 then Manager.zero
  else if k >= size b then Manager.one
  else begin
    (* Walk bits from least significant upwards, building "value < k"
       bottom-up: at each bit, if k's bit is 1 then choosing 0 wins
       outright on the suffix, else choosing 1 loses outright.  The
       least significant bit sits at the deepest level, so [mk] always
       gets children at strictly deeper levels. *)
    let w = width b in
    (* Base case: the empty suffix is not strictly below the empty
       suffix of k. *)
    let acc = ref Manager.zero in
    for i = w - 1 downto 0 do
      let lvl = b.levels.(i) in
      let kbit = (k lsr (w - 1 - i)) land 1 in
      acc :=
        if kbit = 1 then Manager.mk m lvl Manager.one !acc
        else Manager.mk m lvl !acc Manager.zero
    done;
    !acc
  end

let equality m b1 b2 =
  if width b1 <> width b2 then
    invalid_arg "Fdd.equality: blocks differ in width";
  let acc = ref Manager.one in
  for i = width b1 - 1 downto 0 do
    let bit_eq =
      Ops.bbiimp m
        (Manager.var m b1.levels.(i))
        (Manager.var m b2.levels.(i))
    in
    acc := Ops.band m !acc bit_eq
  done;
  !acc

let perm_pairs b1 b2 =
  if width b1 <> width b2 then
    invalid_arg "Fdd.perm_pairs: blocks differ in width";
  Array.to_list (Array.map2 (fun l1 l2 -> (l1, l2)) b1.levels b2.levels)

let decode b ~levels:lv values =
  let pos = Hashtbl.create 16 in
  Array.iteri (fun i l -> Hashtbl.replace pos l i) lv;
  let w = width b in
  let v = ref 0 in
  for i = 0 to w - 1 do
    let idx =
      match Hashtbl.find_opt pos b.levels.(i) with
      | Some idx -> idx
      | None -> invalid_arg "Fdd.decode: block level missing from ~levels"
    in
    if values.(idx) then v := !v lor (1 lsl (w - 1 - i))
  done;
  !v
