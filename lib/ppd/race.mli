(** Race detection over the parallel dynamic graph (§6.4).

    Definitions 6.1–6.4: two {e simultaneous} (unordered) internal edges
    race when their shared-variable access sets conflict — a
    write/write or read/write intersection. An execution instance is
    race-free when all simultaneous edge pairs are race-free.

    Each process's internal edges are totally ordered by its chain, so
    the edges of another process [A] that happen before an edge [e] are
    a prefix of [A]'s chain and those that happen after [e] a suffix:
    the edges simultaneous with [e] are one contiguous run. {!detect}
    keeps, per shared variable and process, the edges that access the
    variable in chain order; for every edge [e] writing the variable it
    finds the simultaneous run of each other process's accessors with
    two binary searches on {!Pardyn.edge_before}, and reports each
    accessor in it — write/write if it writes, read/write if it reads.
    The cost is [O(W · P · log A)] ordering tests for [W] writes, [P]
    processes and [A] accessors per process, against the [O(E²)] of
    {!all_pairs} (§7 asks for cheaper conflict detection; benchmark
    T5). *)

type conflict = Write_write | Read_write

type race = {
  rc_var : Lang.Prog.var;
  rc_edge1 : int;  (** internal-edge id; [rc_edge1 < rc_edge2] *)
  rc_edge2 : int;
  rc_kind : conflict;
}

type stats = {
  pairs_examined : int;  (** edge pairs whose ordering was tested *)
  races : race list;  (** deduplicated, deterministic order *)
}

val detect : Pardyn.t -> stats
(** The chain scan; [pairs_examined] counts its {!Pardyn.edge_before}
    tests. *)

val all_pairs : Pardyn.t -> stats
(** Tests every cross-process edge pair — semantically equal to
    {!detect} (property-tested); quadratic, kept as the oracle. *)

val is_race_free : Pardyn.t -> bool
(** Definition 6.4 over the whole execution instance. *)

val pp_race : Lang.Prog.t -> Format.formatter -> race -> unit

val pp_report : Pardyn.t -> Format.formatter -> race list -> unit
(** Human-readable report with the statements covered by each edge. *)
