(* Bounds-checked little-endian binary readers and writers for the
   snapshot format.  Readers never trust the input: every length is
   checked against the remaining bytes and every overrun raises
   [Truncated], which the snapshot layer converts into its [Corrupt]
   error.  Integers are 64-bit two's complement, little endian. *)

exception Truncated

(* -- writing ------------------------------------------------------------ *)

type writer = Buffer.t

let writer () = Buffer.create 4096
let contents (w : writer) = Buffer.contents w

let u8 w v = Buffer.add_char w (Char.chr (v land 0xff))

let i64 w v =
  for k = 0 to 7 do
    u8 w ((v asr (8 * k)) land 0xff)
  done

let int_ w v = i64 w v

let string_ w s =
  i64 w (String.length s);
  Buffer.add_string w s

let int_array w a =
  i64 w (Array.length a);
  Array.iter (fun v -> i64 w v) a

let list_ w f l =
  i64 w (List.length l);
  List.iter (f w) l

(* -- reading ------------------------------------------------------------ *)

type reader = { buf : string; mutable pos : int }

let reader ?(pos = 0) buf =
  if pos < 0 || pos > String.length buf then raise Truncated;
  { buf; pos }

let remaining r = String.length r.buf - r.pos
let at_end r = remaining r <= 0

let need r n = if n < 0 || remaining r < n then raise Truncated

let read_i64 r =
  need r 8;
  let v = ref 0 in
  for k = 7 downto 0 do
    v := (!v lsl 8) lor Char.code r.buf.[r.pos + k]
  done;
  r.pos <- r.pos + 8;
  (* sign-extend from bit 62: OCaml ints are 63-bit, so byte 7's high
     bit folds into the sign on the shift below *)
  !v

let read_int r = read_i64 r

let read_string r =
  let n = read_i64 r in
  need r n;
  let s = String.sub r.buf r.pos n in
  r.pos <- r.pos + n;
  s

let read_int_array r =
  let n = read_i64 r in
  (* each element takes 8 bytes; checking first prevents huge
     allocations driven by a corrupt length (and [n * 8] could wrap) *)
  if n < 0 || n > remaining r / 8 then raise Truncated;
  Array.init n (fun _ -> read_i64 r)

let read_list r f =
  let n = read_i64 r in
  if n < 0 then raise Truncated;
  List.init n (fun _ -> f r)
