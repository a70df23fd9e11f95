(** Dynamic program dependence graphs (§4.2).

    Nodes represent {e program events} — one execution of a program
    component: ENTRY/EXIT of a graph, {e singular} nodes (assignment or
    control-predicate executions, associated with the assigned value or
    the predicate outcome), {e sub-graph} nodes encapsulating a
    subroutine execution (associated with the returned value), the
    fictional ["%n"] parameter nodes of §4.2, and {e external} nodes —
    the fragment frontier, standing for values defined outside the part
    of the graph built so far (a previous log interval or another
    process; the controller resolves them on demand, §5.3/§5.6).

    Sub-graph nesting is flat: every member node carries the id of its
    owning sub-graph node ([owner]), so a sub-graph can be rendered
    collapsed or expanded and dependence edges cross boundaries freely.

    Edges follow §4.2: flow (execution order), data dependence (labelled
    with the variable, or the parameter index for actual→formal and
    return-value mapping), control dependence, and synchronization
    edges between processes.

    Storage is flat (DESIGN §10.2): nodes are columns of ints (kind tag
    and payload, pid, owner, event) plus a value and a label column,
    edges are int columns chained per endpoint, and events are found
    through an int-keyed hash index whose chains run through a node
    column, so it is sized by the nodes built. Adding a node or an edge
    allocates nothing beyond column growth; {!node}, {!preds} and
    {!succs} build their results on demand. *)

type node_kind =
  | N_entry of int  (** fid *)
  | N_exit of int  (** fid *)
  | N_singular of int  (** sid *)
  | N_subgraph of { sid : int; callee : int }
  | N_loop of int
      (** a loop e-block execution (§5.4): collapsed when the loop was
          skipped during replay, expandable like a sub-graph node *)
  | N_param of int  (** parameter index, 1-based; 0 is the return value *)
  | N_external of Lang.Prog.var
  | N_hole of { hole_lo : int; hole_hi : int }
      (** a damaged or unreplayable interval, degraded mode's explicit
          "history unavailable" marker (seq range [lo..hi]) *)

type node = {
  nd_id : int;
  nd_ref : Runtime.Event.eref option;
  nd_kind : node_kind;
  nd_pid : int;
  nd_owner : int option;  (** enclosing sub-graph node *)
  nd_label : string;
  nd_value : Runtime.Value.t option;
}
(** A read-only view of a node, built by {!node}. *)

type edge_kind =
  | Flow
  | Data of Lang.Prog.var
  | Dparam of int  (** actual -> formal (index n), or return value (0) *)
  | Control
  | Sync

type t

val create : unit -> t

val add_node :
  t ->
  ?ref_:Runtime.Event.eref ->
  ?owner:int ->
  ?value:Runtime.Value.t ->
  pid:int ->
  kind:node_kind ->
  label:string ->
  unit ->
  int
(** The new node's id (ids are dense, from 0). [ref_] is the event the
    node stands for and must belong to process [pid]; [label] is kept by
    reference, not copied. *)

val add_event_node :
  t ->
  seq:int ->
  ?owner:int ->
  ?value:Runtime.Value.t ->
  pid:int ->
  kind:node_kind ->
  label:string ->
  unit ->
  int
(** [add_node ~ref_:{epid = pid; eseq = seq}], without the record: the
    node of event [seq] of process [pid]. *)

val add_edge : t -> src:int -> dst:int -> kind:edge_kind -> unit
(** Idempotent: duplicate (src, dst, kind) edges are ignored; two [Data]
    kinds are the same when their variables have the same vid. Reading
    an edge back yields the first [Data] variable added for that vid. *)

val nnodes : t -> int

val nedges : t -> int

val bytes : t -> int
(** The memory the graph's columns and tables take, in bytes. *)

val node : t -> int -> node

val node_pid : t -> int -> int
(** [(node t i).nd_pid], without building the view. *)

val node_seq : t -> int -> int
(** The sequence number of the node's event in its process, or [-1] for
    a node without one, without building the view. *)

val preds : t -> int -> (int * edge_kind) list
(** Incoming dependence edges (the sources this node depends on), in
    the order they were added. *)

val succs : t -> int -> (int * edge_kind) list
(** Outgoing edges, in the order they were added. *)

val find_ref : t -> Runtime.Event.eref -> int option
(** The node of an event; the latest one if several were added. *)

val find_event : t -> pid:int -> seq:int -> int option
(** [find_ref] of event [seq] of process [pid], without the record. *)

val set_value : t -> int -> Runtime.Value.t -> unit

val set_owner : t -> int -> int option -> unit

val externals : t -> (int * Lang.Prog.var) list
(** Unresolved frontier nodes, the most recently marked first. *)

val is_external : t -> int -> bool
(** Whether a node is on the unresolved frontier, in O(1). *)

val mark_external : t -> int -> Lang.Prog.var -> unit
(** Put an [N_external] node on the frontier (raises [Invalid_argument]
    for any other kind). Marking it again moves it to the front. *)

val resolve_external : t -> int -> unit
(** Remove a node from the frontier once the controller has linked it. *)

val pp_node : Format.formatter -> node -> unit

val pp : Format.formatter -> t -> unit
(** Deterministic textual dump (golden-tested against Figure 4.1). *)

val to_dot : t -> string
(** Graphviz rendering with sub-graphs as clusters. *)
