(* Linear probing over a power-of-two table kept at most half full; an
   empty slot holds key -1 (node handles are non-negative).  A key's
   home slot is the top bits of its product with 2^63 / golden ratio
   (Fibonacci hashing), which spreads dense handles evenly. *)

type t = {
  mutable keys : int array;
  mutable vals : int array;
  mutable count : int;
  mutable shift : int;  (* 63 - log2 (table size) *)
}

let create n =
  let rec size cap bits =
    if cap >= 2 * n then (cap, bits) else size (2 * cap) (bits + 1)
  in
  let cap, bits = size 16 4 in
  {
    keys = Array.make cap (-1);
    vals = Array.make cap 0;
    count = 0;
    shift = 63 - bits;
  }

let slot t k = ((k * 0x4F1BBCDCBFA53E0B) land max_int) lsr t.shift

(* The probes are top-level functions of their arguments, so a lookup
   allocates no closure. *)
let rec find_from keys vals mask k i =
  let k' = keys.(i) in
  if k' = k then vals.(i)
  else if k' < 0 then -1
  else find_from keys vals mask k ((i + 1) land mask)

let find t k = find_from t.keys t.vals (Array.length t.keys - 1) k (slot t k)

let rec insert_from keys vals mask k v i =
  if keys.(i) < 0 then begin
    keys.(i) <- k;
    vals.(i) <- v
  end
  else insert_from keys vals mask k v ((i + 1) land mask)

let insert t k v =
  insert_from t.keys t.vals (Array.length t.keys - 1) k v (slot t k)

let add t k v =
  if 2 * (t.count + 1) > Array.length t.keys then begin
    let keys = t.keys and vals = t.vals in
    let cap = 2 * Array.length keys in
    t.keys <- Array.make cap (-1);
    t.vals <- Array.make cap 0;
    t.shift <- t.shift - 1;
    for i = 0 to Array.length keys - 1 do
      if keys.(i) >= 0 then insert t keys.(i) vals.(i)
    done
  end;
  insert t k v;
  t.count <- t.count + 1
