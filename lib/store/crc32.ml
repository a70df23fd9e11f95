(* CRC-32, reflected polynomial 0xEDB88320, slicing-by-8: eight
   256-entry tables (one flat array) let each step fold in eight input
   bytes. Table [k] advances a byte's contribution by [k] more zero
   bytes, so byte [j] of a step goes through table [7 - j]. *)

let tables =
  let t = Array.make (8 * 256) 0 in
  for i = 0 to 255 do
    let c = ref i in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(i) <- !c
  done;
  for k = 1 to 7 do
    for i = 0 to 255 do
      let c = t.(((k - 1) * 256) + i) in
      t.((k * 256) + i) <- (c lsr 8) lxor t.(c land 0xff)
    done
  done;
  t

(* Unchecked: [i] is a masked byte, [k] a table number. *)
let[@inline] t k i = Array.unsafe_get tables ((k lsl 8) lor i)

(* Unchecked: [digest] validates the range before reading. *)
let[@inline] byte s i = Char.code (String.unsafe_get s i)

let digest ?(pos = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - pos in
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.digest";
  (* bounds checked above: every read below is inside [pos, pos + len) *)
  let crc = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + (len land lnot 7) in
  while !i < stop8 do
    let p = !i and c = !crc in
    crc :=
      t 7 ((c lxor byte s p) land 0xff)
      lxor t 6 (((c lsr 8) lxor byte s (p + 1)) land 0xff)
      lxor t 5 (((c lsr 16) lxor byte s (p + 2)) land 0xff)
      lxor t 4 ((c lsr 24) lxor byte s (p + 3))
      lxor t 3 (byte s (p + 4))
      lxor t 2 (byte s (p + 5))
      lxor t 1 (byte s (p + 6))
      lxor t 0 (byte s (p + 7));
    i := p + 8
  done;
  for p = stop8 to pos + len - 1 do
    crc := t 0 ((!crc lxor byte s p) land 0xff) lxor (!crc lsr 8)
  done;
  !crc lxor 0xFFFFFFFF
