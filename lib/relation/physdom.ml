type t = {
  name : string;
  block : Jedd_bdd.Fdd.block;
  uid : int;
}

let counter = ref 0

let declare u ~name ~bits =
  incr counter;
  let block = Jedd_bdd.Fdd.extdomain_bits (Universe.manager u) bits in
  { name; block; uid = !counter }

let name p = p.name
let width p = Jedd_bdd.Fdd.width p.block
let block p = p.block
let levels p = Jedd_bdd.Fdd.levels p.block
let equal a b = a.uid = b.uid
let fits p d = Domain.bits d <= width p
