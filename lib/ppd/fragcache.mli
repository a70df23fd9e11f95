(** Shared replayed-fragment cache: raw {!Emulator.outcome}s keyed by
    [(tier, pid, iv_id)], shared by every controller debugging the same
    saved log (the `ppd serve` registry keeps one instance per log
    identity and analysis policy, so concurrent sessions hit each
    other's replays). The tier component ("content" or "order", DESIGN
    §16) keeps outcomes produced from a reconstructed order log
    separate from those of a directly-recorded content log.

    The same instance holds what those controllers would otherwise
    each rebuild: the program's assembly tables ({!program}), an
    order-tier log's reconstruction ({!reconstruction}) and the log's
    race answer ({!race}).

    Thread- and domain-safe: the table is mutex-protected and the
    counters are atomics. Only clean outcomes (no injected fault, no
    watchdog overrun) are ever published, so a degraded session cannot
    poison its neighbours. *)

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
    reconstruction and the race answer included. *)

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

val race :
  t ->
  Lang.Prog.t ->
  Store.Segment.reader ->
  max_replay_steps:int ->
  (unit -> Pardyn.t * Race.stats * int) ->
  Pardyn.t * Race.stats
(** [race t prog src ~max_replay_steps build] is the race answer of the
    content reader [src], built under that per-interval watchdog
    budget: its parallel dynamic graph, with access sets from e-block
    replay, and {!Race.detect}'s stats over it. It is held like
    {!reconstruction}: [build ()] runs once per registry entry, so a
    warm race request only renders. The slot is keyed physically on
    [prog] and [src] and by value on the budget (a request under
    another budget rebuilds it, so a tighter one sees its own
    overrun), installed by compare-and-set, successes only,
    charged to the budget and evictable. [build] returns the replay
    steps the answer took as its third component, which is the slot's
    rebuild cost; it runs in an [Obs] phase span named ["race-graph"]. *)

val reclaim : t -> int -> int
(** [reclaim t want] evicts cached outcomes, the reconstruction and the
    race answer until at least [want] accounted bytes are
    freed (or the cache is empty), in ascending replay-cost-per-byte
    order — big-but-cheap-to-recompute entries go first; the
    reconstruction's cost is its re-execution's step count, the
    race answer's its replays' step count. Returns the bytes freed;
    releases them from the attached budget itself. An evicted value is
    rebuilt by the next {!reconstruction} or {!race}. *)

val clear : t -> unit
(** Evict everything (releasing the budget charge). *)

val evictions : t -> int
(** Lifetime evicted-entry count. *)

val stats : t -> stats
(** Exact lifetime counters (always live, independent of {!Obs}). *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.0] before any lookup. *)
