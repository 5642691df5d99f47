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

(* -- many values at once ----------------------------------------------- *)

(* Where the bits of disjoint [blocks] sit in the sorted union of their
   levels, [order]: position [j] holds a bit of block [owner.(j)], of
   weight [weight.(j)] in its value (MSB first, as in [ithvar]). *)
type positions = { order : int array; owner : int array; weight : int array }

let positions blocks =
  let bits =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun k (b : block) ->
              let w = Array.length b.levels in
              Array.mapi (fun i l -> (l, k, 1 lsl (w - 1 - i))) b.levels)
            blocks))
  in
  Array.stable_sort (fun (l1, _, _) (l2, _, _) -> Int.compare l1 l2) bits;
  {
    order = Array.map (fun (l, _, _) -> l) bits;
    owner = Array.map (fun (_, k, _) -> k) bits;
    weight = Array.map (fun (_, _, wt) -> wt) bits;
  }

let of_values m blocks tuples =
  let p = positions blocks in
  let n = Array.length p.order in
  (* One bit string per tuple, one character per level in level order,
     so that sorting the strings sorts the tuples' paths. *)
  let encode values =
    let v = Array.make (Array.length blocks) 0 in
    List.iteri (fun k x -> if k < Array.length v then v.(k) <- x) values;
    String.init n (fun j ->
        if v.(p.owner.(j)) land p.weight.(j) <> 0 then '1' else '0')
  in
  let rows =
    Array.of_list (List.sort_uniq String.compare (List.rev_map encode tuples))
  in
  (* [build lo hi d]: the node of the rows [lo, hi), which share their
     first [d] bits.  Rows with bit [d] clear come first, so one scan
     splits the range; each distinct prefix costs one [mk], children
     before parents. *)
  let rec build lo hi d =
    if lo = hi then Manager.zero
    else if d = n then Manager.one
    else begin
      let mid = ref lo in
      while !mid < hi && rows.(!mid).[d] = '0' do incr mid done;
      let low = build lo !mid (d + 1) in
      let high = build !mid hi (d + 1) in
      Manager.mk m p.order.(d) low high
    end
  in
  build 0 (Array.length rows) 0

let iter_values m blocks f k =
  let p = positions blocks in
  let tuple = Array.make (Array.length blocks) 0 in
  Enum.iter_assignments m f ~levels:p.order (fun bits ->
      Array.fill tuple 0 (Array.length tuple) 0;
      Array.iteri
        (fun j bit ->
          if bit then begin
            let k = p.owner.(j) in
            tuple.(k) <- tuple.(k) lor p.weight.(j)
          end)
        bits;
      k tuple)

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

