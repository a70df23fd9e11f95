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

val borrow :
  ?pool:Exec.Pool.t ->
  ?config:config ->
  Fragcache.t ->
  Analysis.Eblock.t ->
  Store.Segment.reader ->
  (t -> 'a) ->
  'a
(** [borrow shared eb src f] answers [f] on a controller over the
    dynamic graph that [shared] keeps for this log ({!Fragcache.assembly},
    DESIGN §14.6), holding its lock for the whole of [f]. The graph
    grows append-only as requests assemble intervals, so a request
    walks what earlier ones built instead of assembling it again, and
    its growth is charged to the cache's budget once [f] returns. The
    outcomes it assembles are not published: the graph holds them.

    Every answer equals that of a controller from {!start_paged}, byte
    for byte: the statistics count the intervals {e this} controller
    visits, and every read of the graph visits the interval that owns
    what it reads, so [replays], [replay_steps], the watchdog budget and
    the deadline behave as on a private graph. A {!race} answer kept
    with the graph is the one exception: it costs no replay. A visit the shared graph
    answers is a cache hit ({!Fragcache.note_hit}). A request in
    degraded mode must not borrow: its holes would enter the shared
    graph. *)

val holes : t -> hole list
(** Holes declared so far, in assembly order (deterministic across
    [-jN]). Empty unless running with [config.degraded]. *)

val graph : t -> Dyn_graph.t
(** The graph this controller assembles into. A borrowed one may hold
    more than this controller assembled; {!why} and {!node_of_event}
    read it as this controller's own. *)

val graph_size : t -> int * int
(** The graph's nodes and edges, without the edges that queries added
    (call stitches and external resolutions): after every interval is
    assembled, the size of the graph assembly alone builds, however the
    graph was grown. *)

val prog : t -> Lang.Prog.t

val race : t -> Pardyn.t * Race.stats
(** The log's race answer (§6.4): its parallel dynamic graph and
    {!Race.detect}'s stats over it, built on first use and kept with
    the graph ({!Assembly.race}), so a borrowed graph builds it once per
    registry entry. The structure comes from the log's sync records,
    each internal edge's READ/WRITE sets from the shared accesses of the
    intervals that cover it: every interval whose block's USED or
    DEFINED set names a shared variable is visited as flowback visits
    what it reads (caches, retries, deadline, watchdog, counted in
    {!stats}) and so assembled into the graph. An interval whose replay
    diverges ({!Emulator.Replay_mismatch}, which a data race causes) is
    not assembled and keeps the accesses it replayed before the
    mismatch, so the answer is exact up to the first race, in degraded
    mode too. In degraded mode a damaged interval is a hole and
    contributes no accesses. A build in which an interval diverged but
    that reports no race raises that {!Emulator.Replay_mismatch} (the
    divergence is unexplained, not race-free), or in degraded mode
    declares each diverged interval a hole. A kept answer costs no
    replay; it is built again when this controller's watchdog budget is
    below the largest replay it read (a diverged one counts as the
    budget it was built under), so a tighter budget meets the overrun a
    fresh build would. The build runs in an [Obs] phase span named
    ["race-graph"]. *)

val pardyn : t -> Pardyn.t
(** The graph of {!race}. *)

val content_log : t -> Trace.Log.t
(** The whole content log the controller debugs: the source's own, or
    the reconstruction of an order-tier source. With [shared], decoded
    once per cache ({!Fragcache.content_log}). *)

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

val build_interval : t -> pid:int -> iv_id:int -> unit
(** Emulate the interval (if not already built) and add its fragment to
    the graph. Awaits a replay submitted to the pool instead of
    replaying again. One cache lookup, counted in {!stats}. *)

val build_intervals_par : t -> (int * int) list -> unit
(** Batch-emulate a set of [(pid, iv_id)] intervals: every missing
    replay is submitted to the pool (if any), then the fragments are
    assembled into the graph in list order on the calling domain — so
    the graph equals the one a serial [build_interval] loop over the
    same list would build. *)

val node_of_event : t -> Runtime.Event.eref -> int option
(** Locate the graph node for an event, building its enclosing interval
    on demand. The interval becomes this controller's even when a
    borrowed graph already holds the node. *)

val last_event_node : t -> pid:int -> int option
(** The node of the last event process [pid] executed — the root of the
    inverted tree the debugger first presents (§3.2.3). Builds the
    process's final (possibly open/faulted) interval. *)

val expand_subgraph : t -> int -> bool
(** Emulate the nested interval behind an unexpanded sub-graph or loop
    node and stitch a callee's detail graph in: a [Control] edge from
    the call node to the callee's entry and a [Dparam 0] edge from its
    return, whenever both ends exist, whichever was assembled first.
    [false] if the node is not a sub-graph or loop node, has no nested
    interval (inlined callees are already expanded), or this controller
    has that interval already. *)

val resolve_external : t -> int -> int option
(** Find the definition behind a frontier node and link it with a data
    edge; returns the writer node. The graph remembers the intervals
    the resolution visited, and a controller that finds the node
    resolved by another visits them in {!why}. *)

val why : t -> int -> (int * Dyn_graph.edge_kind) list
(** Immediate dependence predecessors (data/control/sync), after
    resolving this node's external reads and pending sync links: the
    edges a graph that this controller assembled alone would hold (a
    call stitch once it expanded the call, a loop node's edges once it
    has the loop's parent). *)

type stats = {
  replays : int;
      (** intervals this controller visited: assembled, or found in a
          borrowed graph *)
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
