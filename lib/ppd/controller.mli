(** The PPD Controller (§3.2.3, §5.3, §5.6): owns the debugging phase.

    Starting from the execution log, the controller builds the dynamic
    program dependence graph {e incrementally}: it emulates only the log
    intervals needed to answer the user's current question, exactly as
    the paper prescribes ("since only the portions of the dynamic graph
    in which the user is interested are generated, this is called
    incremental tracing").

    Capabilities:
    - build the fragment for any log interval (once; results are
      cached);
    - locate and build the fragment containing an arbitrary event;
    - expand an unexpanded sub-graph node by emulating the nested
      e-block's interval (§5.2);
    - resolve {e external} frontier nodes: a parameter resolves to the
      caller's call/spawn event (parent interval), a shared variable to
      the writing interval — found via the program database's DEFINED
      information, ordered by recency and validated by value (§5.6);
    - follow synchronization links across processes, building the
      partner process's interval on demand (§6.3);
    - answer [why] queries: the immediate dependence predecessors of a
      node, with all of the above resolution applied. *)

type t

(** Degraded-mode policy (DESIGN §12) and per-request resilience
    envelope (DESIGN §17). *)
type config = {
  degraded : bool;
      (** map damaged/unreplayable intervals to explicit hole nodes
          instead of raising *)
  retries : int;
      (** serial re-attempts of a transiently-failed pool replay before
          a hole is declared (default 2) *)
  max_replay_steps : int;
      (** the runaway-replay watchdog budget per interval (default
          1_000_000) *)
  deadline : Resil.Deadline.t;
      (** checked at every {!build_interval} entry (the e-block replay
          boundary); expiry raises [Resil.Deadline.Expired], which the
          daemon answers as PPD090 (default: none) *)
  backoff : Resil.Backoff.policy option;
      (** when set, serial retries of transient faults sleep under
          this jittered-exponential policy instead of re-attempting
          immediately; delays never change the computed output
          (default: [None] — retry immediately, the CLI behavior) *)
  retry_seed : int;
      (** seed for the deterministic backoff jitter (default 0) *)
}

val default_config : config

exception Replay_overrun of { pid : int; iv_id : int; budget : int }
(** Raised (outside degraded mode) when an interval replay exhausts
    [max_replay_steps] — surfaced by the CLI as PPD060/exit 7. *)

(** A damaged or unreplayable interval that degraded mode mapped to an
    explicit hole node. *)
type hole = {
  h_pid : int;
  h_iv_id : int;
  h_seq_lo : int;
  h_seq_hi : int;
  h_reason : string;
}

val start :
  ?pool:Exec.Pool.t ->
  ?shared:Fragcache.t ->
  ?config:config ->
  Analysis.Eblock.t ->
  Trace.Log.t ->
  t
(** Debug over a whole in-memory log: {!start_paged} over
    {!Store.Segment.of_log}. *)

val start_paged :
  ?pool:Exec.Pool.t ->
  ?shared:Fragcache.t ->
  ?config:config ->
  Analysis.Eblock.t ->
  Store.Segment.reader ->
  t
(** Debug over an open segment file: interval structure comes from the
    footer index, and only the intervals a query touches are ever
    decoded (through the reader's window LRU). Flowback answers are
    identical to {!start} on the same execution.

    With [pool], {!build_intervals_par} emulates intervals on the
    pool's domains; graph assembly stays on the querying domain, so
    the resulting graph is byte-identical to the serial one. With [shared], raw replay outcomes are exchanged with
    every other controller bound to the same {!Fragcache} (the `ppd
    serve` registry keeps one per opened log): clean outcomes are
    published after assembly and the cache is consulted before any
    serial replay; the program's assembly tables come from it too
    ({!Fragcache.program}). Statistics ([replays]/[replay_steps]) count
    assembly, not raw replay work, so they are unchanged by sharing.

    An order-tier log (DESIGN §16) is debugged through the equivalent
    content log, rebuilt by re-executing the program
    ({!Reconstruct.reader}). Without [shared] that happens here, on
    every call; with [shared] it comes from {!Fragcache.reconstruction},
    which re-executes once per cache and keeps the result until it is
    evicted. Either may raise {!Reconstruct.Divergence} (PPD061/exit 8)
    when the re-execution does not match the recorded sync order, or
    [Store.Segment.Unreadable] when a page of the order log cannot be
    read; neither failure is cached. *)

val holes : t -> hole list
(** Holes declared so far, in assembly order (deterministic across
    [-jN]). Empty unless running with [config.degraded]. *)

val graph : t -> Dyn_graph.t

val prog : t -> Lang.Prog.t

val race : t -> Pardyn.t * Race.stats
(** The log's race answer (§6.4): its parallel dynamic graph and
    {!Race.detect}'s stats over it, built on first use. The structure
    comes from the log's sync records, each internal edge's READ/WRITE
    sets from the replays of the intervals that cover it, run like
    {!build_intervals_par} (pool, caches, retries, deadline; clean
    outcomes are published to the shared cache) but not assembled. An
    interval whose block's USED and DEFINED sets name no shared
    variable cannot add an access and is not replayed. An interval whose
    replay diverges ({!Emulator.Replay_mismatch}, which a data race
    causes) keeps the accesses it replayed before the mismatch, so the
    answer is exact up to the first race, in degraded mode too. In
    degraded mode a damaged interval is a hole and contributes no
    accesses. A build in which an interval diverged but that reports no
    race raises that {!Emulator.Replay_mismatch} (the divergence is
    unexplained, not race-free), or in degraded mode declares each
    diverged interval a hole. The replays are counted in {!stats} ([replays],
    [replay_steps]) by the controller that builds the answer. A
    controller started with a shared cache takes a clean answer from
    there ({!Fragcache.race}, per watchdog budget), so it is built once
    per registry entry; a degraded one builds its own. *)

val pardyn : t -> Pardyn.t
(** The graph of {!race}. *)

val content_log : t -> Trace.Log.t
(** The whole content log the controller debugs: the source's own, or
    the reconstruction of an order-tier source. *)

val what_if :
  ?iv_id:int ->
  t ->
  pid:int ->
  overrides:(string * int) list ->
  (int * Emulator.outcome, string) result
(** §5.7's experiment: re-execute one log interval ([iv_id], by default
    the process's root block) from its restored prelog state with some
    variables forced to new values, and observe the divergent behaviour
    (output, fault, final values) without touching the recorded
    execution. Returns the interval id replayed. Variable names resolve
    to the interval's function locals first, then shared globals. A
    process or interval the log does not record, or an unknown name,
    is [Error] with the reason. The replay runs under the watchdog
    budget, and its steps count in {!stats}' [replay_steps]. *)

val intervals : t -> pid:int -> Trace.Log.interval array

val build_interval : t -> pid:int -> iv_id:int -> Emulator.outcome
(** Emulate the interval (if not already built) and add its fragment to
    the graph. Awaits a replay submitted to the pool instead of
    replaying again. *)

val build_intervals_par : t -> (int * int) list -> unit
(** Batch-emulate a set of [(pid, iv_id)] intervals: every missing
    replay is submitted to the pool (if any), then the fragments are
    assembled into the graph in list order on the calling domain — so
    the graph equals the one a serial [build_interval] loop over the
    same list would build. *)

val node_of_event : t -> Runtime.Event.eref -> int option
(** Locate the graph node for an event, building its enclosing interval
    on demand. *)

val last_event_node : t -> pid:int -> int option
(** The node of the last event process [pid] executed — the root of the
    inverted tree the debugger first presents (§3.2.3). Builds the
    process's final (possibly open/faulted) interval. *)

val expand_subgraph : t -> int -> Emulator.outcome option
(** Emulate the nested interval behind an unexpanded sub-graph node and
    stitch its detail graph in. [None] if the node is not a sub-graph
    node or has no nested interval (inlined callees are already
    expanded). *)

val resolve_external : t -> int -> int option
(** Find the definition behind a frontier node and link it with a data
    edge; returns the writer node. *)

val why : t -> int -> (int * Dyn_graph.edge_kind) list
(** Immediate dependence predecessors (data/control/sync), after
    resolving this node's external reads and pending sync links. *)

type stats = {
  replays : int;  (** intervals assembled into the graph so far *)
  replay_steps : int;  (** interpreter steps spent emulating *)
  intervals_total : int;  (** intervals available in the log *)
  cache_hits : int;
      (** assembly requests answered without a fresh serial replay
          (already assembled, submitted to the pool, or shared
          cache) — this instance only, always live unlike the Obs
          mirror *)
  cache_misses : int;  (** assembly requests that forced a serial replay *)
  holes : int;  (** degraded-mode holes declared *)
  retried : int;  (** transient replay failures retried *)
}

val stats : t -> stats
