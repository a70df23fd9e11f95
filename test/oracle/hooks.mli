(** Observer combinators for tests and the bench: the product attaches
    one observer, the logger, and needs neither. *)

val both : Runtime.Hooks.factory -> Runtime.Hooks.factory -> Runtime.Hooks.factory
(** Fan events out to two observers (e.g. logger + full tracer); reads
    local events if either does. *)

val collect : (int * int * Runtime.Event.t) list ref -> Runtime.Hooks.factory
(** Append [(pid, seq, event)] triples to a list (newest first). Reads
    local events. *)
