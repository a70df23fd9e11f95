exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun m -> raise (Corrupt m)) fmt

(* [n] as an unsigned 63-bit number: a negative int, which the zigzag
   map makes of every int of magnitude 2^61 or more, takes nine bytes. *)
let write buf n =
  let n = ref n in
  while !n land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.chr (0x80 lor (!n land 0x7f)));
    n := !n lsr 7
  done;
  Buffer.add_char buf (Char.chr !n)

(* zigzag: 0,-1,1,-2,... -> 0,1,2,3,... *)
let write_signed buf n = write buf ((n lsl 1) lxor (n asr 62))

type decoder = { src : string; mutable pos : int; limit : int }

let decoder ?(pos = 0) ?limit src =
  let limit = match limit with Some l -> l | None -> String.length src in
  { src; pos; limit }

let read_byte d =
  if d.pos >= d.limit then corrupt "unexpected end of input at offset %d" d.pos
  else begin
    let b = Char.code d.src.[d.pos] in
    d.pos <- d.pos + 1;
    b
  end

(* A loop over local refs, which the compiler keeps in registers: a
   local recursive function would allocate its closure on every call,
   and this is the decoder's innermost operation. *)
let read d =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    if !shift > 62 then corrupt "varint wider than 63 bits at offset %d" d.pos;
    let b = read_byte d in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false else shift := !shift + 7
  done;
  !acc

let read_signed d =
  let u = read d in
  (u lsr 1) lxor (-(u land 1))

let read_bytes d n =
  if n < 0 || d.pos + n > d.limit then
    corrupt "unexpected end of input reading %d bytes at offset %d" n d.pos
  else begin
    let s = String.sub d.src d.pos n in
    d.pos <- d.pos + n;
    s
  end

let at_end d = d.pos >= d.limit
