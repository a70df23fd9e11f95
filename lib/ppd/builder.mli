(** Build dynamic-graph fragments from (re-generated) event streams.

    Feed the events of one log interval's emulation and the builder
    adds the corresponding nodes and dependence edges to a
    {!Dyn_graph.t}:

    - data dependences by tracking the last definition of each variable
      (globals in a table shared across frames, locals per frame scope);
      a read whose definition lies outside the fragment becomes an
      {e external} node recorded on the graph's frontier, which the
      controller later resolves against other intervals or processes;
    - dynamic control dependences from the nearest executed instance of
      the statement's static control parent ({!Analysis.Static_pdg});
    - call statements become sub-graph nodes with the §4.2
      actual/formal parameter mapping: fictional [%n] nodes for
      expression arguments, [Dparam] edges into the callee's formal
      parameter nodes when the callee is expanded, and a [%0] edge
      carrying the returned value back to the sub-graph node;
    - synchronization events become ref-carrying nodes; their incoming
      cross-process edges are connected immediately when the partner
      node is already in the graph, or handed back to the caller as
      pending links. *)

type program
(** What assembly reads from the program: each statement's static
    control parents and every node label, computed once per program. *)

val program : Lang.Prog.t -> program
(** Compute the tables for a program. Callers that start many
    controllers over one program keep the result (see
    {!Fragcache.program}). *)

val build_from_outcome :
  program ->
  Dyn_graph.t ->
  interval:Trace.Log.interval ->
  Emulator.outcome ->
  (Runtime.Event.eref * int) list
(** Assemble the fragment for an interval from an already-computed
    replay outcome (possibly produced on another domain): seed the
    scope, feed every event. Replay never reads the graph, so
    replay-then-feed and feed-during-replay build identical graphs.
    Returns the cross-process sync links whose source node is not in
    the graph yet, [(source event, target node)], in event order. *)
