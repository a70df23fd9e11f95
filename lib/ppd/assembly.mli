(** One dynamic graph and what it takes to grow it (DESIGN §14.6).

    An assembly is the graph of one log, the {!Builder} that feeds
    interval fragments into it, the cross-process sync links still
    waiting for their source node, a summary of every assembled
    interval, the edges queries add on top of the fragments (call
    stitches and external resolutions), with what each resolution
    visited, and the log's race answer once one is built from the
    summaries (§6.4). The graph is append-only: an interval is assembled
    at most once, and nothing is removed.

    A private controller owns one; the daemon's registry entry keeps
    one in {!Fragcache.assembly} that every request borrows under
    {!locked}. What a request may see of it is the controller's
    business ({!Controller}): the assembly itself knows nothing of
    requests. Not thread-safe outside {!locked}. *)

type t

val create : Builder.program -> intervals:int -> nprocs:int -> t
(** An empty assembly for a log of [nprocs] processes with [intervals]
    intervals in all, each known by its index (process [p]'s interval
    [i] is [i] plus the interval counts of the processes before [p]). *)

val graph : t -> Dyn_graph.t

val locked : t -> (unit -> 'a) -> 'a
(** Run under the assembly's lock. *)

val add : t -> interval:Trace.Log.interval -> int -> Emulator.outcome -> unit
(** [add t ~interval i o] assembles interval [i]'s fragment from its
    replay outcome, connects the sync links that waited for one of its
    nodes, files its own unresolved ones, and keeps its summary: its
    replay steps, last event, last [return], last write of each global
    and shared accesses ({!Pardyn.access_of_event}). *)

val assembled : t -> int -> bool

val steps : t -> int -> int
(** The replay steps of an assembled interval. *)

val last_seq : t -> int -> int
(** The sequence number of an assembled interval's last event, or [-1]
    when it has none. *)

val return_seq : t -> int -> int
(** The sequence number of its last [return] statement, or [-1]. *)

val last_write : t -> int -> int -> (int * Runtime.Value.t) option
(** [last_write t i vid]: the sequence number and value of interval
    [i]'s last write of global [vid]. *)

val accesses : t -> int -> Pardyn.access list
(** The shared accesses of an assembled interval, latest first. *)

val race : t -> (Pardyn.t * Race.stats * int) option
(** The race answer built over this assembly ({!Controller.race}): the
    parallel dynamic graph, {!Race.detect}'s stats over it, and the
    largest replay step count the build read, which a request with a
    smaller watchdog budget must not be answered from. *)

val set_race : t -> Pardyn.t * Race.stats * int -> unit
(** Keep a race answer, replacing any earlier one. *)

val pending_source : t -> int -> Runtime.Event.eref option
(** The source event of the sync link into a node, while that event has
    no node yet. *)

val add_query_edge : t -> src:int -> dst:int -> kind:Dyn_graph.edge_kind -> unit
(** An edge a query adds (an external's resolution), counted apart from
    the fragments' edges. *)

val stitch :
  t -> sub:int -> src:int -> dst:int -> kind:Dyn_graph.edge_kind -> unit
(** A call stitch of sub-graph node [sub]: the [Control] edge from [sub]
    to its callee's entry, or the [Dparam 0] edge from the callee's
    return into [sub]. A query edge. *)

val stitch_into : t -> int -> (int * int) option
(** The stitch into a node: its source and its sub-graph node. *)

val remember : t -> int -> int list -> unit
(** [remember t x trail]: external [x] was resolved, visiting [trail]
    (the controller's encoding, latest first). *)

val memo : t -> int -> int list option

val nodes : t -> int

val edges : t -> int

val fragment_edges : t -> int
(** {!edges} without the query edges: the edge count of the graph that
    assembling the same intervals alone builds. *)

val intervals_assembled : t -> int

val assembled_steps : t -> int
(** The replay steps of every assembled interval: what rebuilding the
    assembly costs. *)

val bytes : t -> int
(** A coarse estimate of the assembly's memory, its race answer
    included. *)
