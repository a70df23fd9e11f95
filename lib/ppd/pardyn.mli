(** The parallel dynamic program dependence graph (§6.1).

    A subset of the dynamic graph abstracting process interactions:
    one {b synchronization node} per sync event (P, V, send, recv,
    send-unblock, spawn, join, process start/exit), {b internal edges}
    chaining each process's consecutive sync nodes (each representing
    the local events between them — the execution instance of a
    synchronization unit), and {b synchronization edges} for the causal
    pairs of §6.2: V→P (token provenance), send→recv,
    recv→send-unblock (blocking send, Figure 6.1), spawn→process-start
    and process-exit→join.

    Vector clocks computed over the graph give the partial order "→" of
    §6.1; internal edges carry the shared-variable READ/WRITE sets of
    Definition 6.2. The debugging phase builds the graph with
    {!of_accesses}: the structure from the log's sync records, the sets
    from the accesses that the dynamic graph's {!Assembly} keeps for
    each interval it assembled. The runtime {!observer} builds the same
    graph live and is kept as the test oracle.

    Attribution of a sync event's own accesses: its reads (send
    payloads, join pid expressions) happen before its synchronization
    takes effect and belong to the {e incoming} internal edge; its
    writes (recv targets, join results) are protected by the incoming
    synchronization edge and belong to the {e outgoing} internal edge. *)

type eref = Runtime.Event.eref

type node = {
  n_id : int;
  n_ref : eref;
  n_pid : int;
  n_sid : int option;
  n_data : Trace.Log.sync_data;
  mutable n_clock : Vclock.t;
}

type iedge = {
  ie_id : int;
  ie_pid : int;
  ie_from : int;  (** start node id *)
  ie_to : int option;  (** end node id; [None] if the process halted mid-edge *)
  ie_reads : Analysis.Varset.t;  (** shared variables read (Def. 6.2) *)
  ie_writes : Analysis.Varset.t;
}

type t = {
  prog : Lang.Prog.t;
  nodes : node array;
  sync_edges : (int * int) array;  (** (from node, to node) *)
  iedges : iedge array;
  iedges_of_pid : int list array;
  succs : int list array;  (** node-level, sync + internal *)
  preds : int list array;
  node_of_ref : (eref, int) Hashtbl.t;
}

type access
(** One replayed event as race detection keeps it: its sequence number
    and its shared reads and writes. *)

val access_of_event :
  pid:int -> seq:int -> Runtime.Event.t -> access option
(** The event's shared accesses, or [None] when it has none. The
    loop-exit stand-in a replay emits for a skipped nested loop e-block
    has none: that block's own replay supplies its accesses at their
    true seqs. *)

val of_accesses :
  Lang.Prog.t -> Trace.Log.t -> (pid:int -> access list) -> t
(** [of_accesses prog log accesses] takes its nodes and edges from the
    log's sync records, so the structure never depends on a replay
    succeeding, and its access sets from [accesses ~pid]: those of the
    intervals of process [pid] that were replayed, in any order. A
    process with none gets empty sets. *)

val of_log : Lang.Prog.t -> Trace.Log.t -> t
(** The structure alone, with empty access sets. Only the end-to-end
    benchmark's traced decomposition uses it, to time the graph layer
    by itself; race answers come from {!of_accesses}. *)

type obs
(** Runtime observer accumulating sync nodes and per-edge shared
    access sets — the test oracle for {!of_accesses}; the product does
    not attach it. *)

val observer : Lang.Prog.t -> obs

val factory : obs -> Runtime.Hooks.factory

val finish : obs -> t

val node_of : t -> eref -> int option

val node_hb : t -> int -> int -> bool
(** Reflexive happened-before via vector clocks ("→" on nodes). *)

val node_reaches : t -> int -> int -> bool
(** Reflexive graph reachability — semantically equal to {!node_hb}
    (property-tested); exponentially slower, kept as the oracle. *)

val edge_before : t -> iedge -> iedge -> bool
(** Definition §6.1(2): [e1 → e2] iff [end(e1) → start(e2)]. *)

val simultaneous : t -> iedge -> iedge -> bool
(** Definition 6.1: neither [e1 → e2] nor [e2 → e1]. *)

val pp : Format.formatter -> t -> unit
(** Figure-6.1-style dump: per-process node chains plus sync edges. *)
