(** Shared replayed-fragment cache: raw {!Emulator.outcome}s keyed by
    [(tier, pid, iv_id)], shared by every controller debugging the same
    saved log (the `ppd serve` registry keeps one instance per log
    identity and analysis policy, so concurrent sessions hit each
    other's replays). The tier component ("content" or "order", DESIGN
    §16) keeps outcomes produced from a reconstructed order log
    separate from those of a directly-recorded content log.

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
(** Accounted byte estimate of everything cached right now. *)

val program : t -> Lang.Prog.t -> Builder.program
(** The assembly tables for the program debugged over this cache,
    computed by the first controller that asks and kept for the cache's
    lifetime (asking with another program, compared physically,
    replaces them). *)

val reclaim : t -> int -> int
(** [reclaim t want] evicts cached outcomes until at least [want]
    accounted bytes are freed (or the cache is empty), in ascending
    replay-cost-per-byte order — big-but-cheap-to-recompute outcomes
    go first. Returns the bytes freed; releases them from the
    attached budget itself. *)

val clear : t -> unit
(** Evict everything (releasing the budget charge). *)

val evictions : t -> int
(** Lifetime evicted-entry count. *)

val stats : t -> stats
(** Exact lifetime counters (always live, independent of {!Obs}). *)

val hit_rate : t -> float
(** [hits / (hits + misses)]; [0.0] before any lookup. *)
