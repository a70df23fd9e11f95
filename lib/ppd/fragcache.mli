(** Shared replayed-fragment cache: raw {!Emulator.outcome}s keyed by
    [(tier, pid, iv_id)], shared by every controller debugging the same
    saved log (the `ppd serve` registry keeps one instance per log
    identity and analysis policy, so concurrent sessions hit each
    other's replays). The tier component ("content" or "order", DESIGN
    §16) keeps outcomes produced from a reconstructed order log
    separate from those of a directly-recorded content log.

    The same instance holds what those controllers would otherwise
    each rebuild: the program's assembly tables ({!program}), an
    order-tier log's reconstruction ({!reconstruction}), the decoded
    content log ({!content_log}) and the log's dynamic graph
    ({!assembly}), which also holds its race answer.

    Thread- and domain-safe: the table is mutex-protected and the
    counters are atomics. Only clean outcomes (no injected fault, no
    watchdog overrun) are ever published, so a degraded session cannot
    poison its neighbours. Outcomes are published by controllers that
    assemble into a graph of their own; one that assembles into the
    held graph keeps the fragment instead. *)

type t

type stats = { hits : int; misses : int; inserts : int }

val create : ?budget:Resil.Budget.t -> unit -> t
(** With [budget], every insert charges a byte estimate to it and
    triggers a rebalance (DESIGN §17). The daemon registers
    {!reclaim} as the budget's reclaimer for this cache; eviction is
    always safe — an evicted outcome is just replayed again on the
    next lookup. *)

val find : t -> string * int * int -> Emulator.outcome option
(** Look up an interval's outcome; counts a hit or a miss. *)

val publish : t -> string * int * int -> Emulator.outcome -> unit
(** Insert a clean outcome (first writer wins); failed or overrun
    outcomes are silently dropped. *)

val mem : t -> string * int * int -> bool
(** Presence probe; does not count as a lookup. *)

val size : t -> int
(** Cached outcomes. *)

val bytes : t -> int
(** Accounted byte estimate of everything cached right now, the
    reconstruction and the graph included. *)

val program : t -> Lang.Prog.t -> Builder.program
(** The assembly tables for the program debugged over this cache,
    computed by the first controller that asks and kept for the cache's
    lifetime (asking with another program, compared physically,
    replaces them). *)

val reconstruction :
  t -> Analysis.Eblock.t -> Store.Segment.reader -> Store.Segment.reader
(** [reconstruction t eb src] is the content reader reconstructed from
    the order-tier reader [src] ({!Reconstruct.reader}), built by the
    first controller that asks and kept until evicted, so the program
    is re-executed once per registry entry, not once per request
    (DESIGN §16.2). The slot is keyed physically on [src] and [eb]
    (asking with another replaces it) and installed by compare-and-set:
    a racing second builder uses the installed copy and drops its own.
    Only successes are kept — a [Reconstruct.Divergence] or
    [Store.Segment.Unreadable] propagates and the next call tries again.
    With a budget, filling charges an entry-count byte estimate and
    rebalances. *)

val content_log : ?hold:bool -> t -> Store.Segment.reader -> Trace.Log.t
(** The whole content log of a content reader ({!Store.Segment.to_log}),
    for the questions that read all of it: state restoration, what-if
    and the race graph's structure. An indexed reader is decoded by the
    first caller and kept until evicted, held like {!reconstruction}
    (keyed physically on the reader, charged like a reconstruction of
    the same entries, its cost the entry count); a reader over a log in
    memory is returned as it is. With [~hold:false] (a question asked
    once per entry) the held log is read when there is one, and
    otherwise decoded without being kept. *)

val assembly :
  t ->
  eb:Analysis.Eblock.t ->
  src:Store.Segment.reader ->
  (unit -> Assembly.t) ->
  Assembly.t
(** [assembly t ~eb ~src make] is the dynamic graph of the content
    reader [src] under the e-block analysis [eb] (DESIGN §14.6), made by
    the first caller and kept until evicted, held like {!reconstruction}
    (keyed physically on [eb] and [src]). It grows as its borrowers
    assemble intervals; {!grown} charges the growth. Its rebuild cost is
    the replay steps of the intervals it holds. Its race answer
    ({!Assembly.race}) is charged and evicted with it. *)

val grown : t -> Assembly.t -> unit
(** Charge the assembly's growth since it was last charged to the budget
    and rebalance, which may evict it. Nothing when it is no longer the
    one held. *)

val note_hit : t -> unit
(** Count a lookup that an assembled interval of the held graph
    answered, so [hits + misses] stays the number of lookups. *)

type graph_stats = {
  g_nodes : int;
  g_edges : int;
  g_intervals : int;  (** intervals assembled *)
  g_bytes : int;  (** charged *)
  g_evictions : int;  (** lifetime evictions of the graph *)
}

val graph_stats : t -> graph_stats
(** The held graph's size (zeros when none is held). Read without its
    lock, so a request growing it may make it one interval stale. *)

val reclaim : t -> int -> int
(** [reclaim t want] evicts cached outcomes, the reconstruction, the
    content log and the graph until at least [want] accounted bytes are
    freed (or the cache is empty), in ascending replay-cost-per-byte
    order — big-but-cheap-to-recompute entries go first; the
    reconstruction's cost is its re-execution's step count, the graph's
    its replays' step count. Returns
    the bytes freed; releases them from the attached budget itself. An
    evicted value is rebuilt by its next caller. *)

val clear : t -> unit
(** Evict everything (releasing the budget charge). *)

val evictions : t -> int
(** Lifetime evicted-entry count. *)

val stats : t -> stats
(** Exact lifetime counters (always live, independent of {!Obs}). *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.0] before any lookup. *)
