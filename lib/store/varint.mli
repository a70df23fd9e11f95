(** LEB128 variable-length integers, the primitive of the v2 wire
    format: small values (statement ids, sequence numbers, deltas) cost
    one byte instead of a fixed word.

    Unsigned varints encode 7 bits per byte, low group first, high bit
    set on continuation bytes. Signed values go through the zigzag map
    so that small negative numbers stay small. *)

exception Corrupt of string
(** Raised by the decoding functions on a truncated or over-long
    encoding. Callers (the segment reader) translate this into frame
    damage rather than letting it escape. *)

val write : Buffer.t -> int -> unit
(** Append the unsigned LEB128 encoding of an int read as an unsigned
    63-bit number: a non-negative int takes one byte per 7 significant
    bits, a negative one nine bytes. *)

val write_signed : Buffer.t -> int -> unit
(** Append the zigzag-mapped encoding of any int. *)

type decoder = { src : string; mutable pos : int; limit : int }
(** A cursor over [src.(pos .. limit-1)]. *)

val decoder : ?pos:int -> ?limit:int -> string -> decoder

val read : decoder -> int
(** Decode an unsigned varint; advances the cursor.
    @raise Corrupt on truncation or an encoding wider than 63 bits. *)

val read_signed : decoder -> int
(** Decode a zigzag varint. *)

val read_byte : decoder -> int
(** One raw byte. @raise Corrupt at end of input. *)

val read_bytes : decoder -> int -> string
(** [n] raw bytes. @raise Corrupt if fewer remain. *)

val at_end : decoder -> bool
