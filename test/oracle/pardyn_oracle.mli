(** Oracles for the parallel dynamic graph ({!Ppd.Pardyn}).

    The debugging phase builds the graph from the log: its structure
    from the sync records, its access sets from e-block replay. The
    observer here builds it live instead, from every event of a run, so
    a test can require the log-built graph's race answer to equal the
    live one. *)

type obs

val observer : Lang.Prog.t -> obs

val factory : obs -> Runtime.Hooks.factory
(** Reads local events. *)

val finish : obs -> Ppd.Pardyn.t

val node_reaches : Ppd.Pardyn.t -> int -> int -> bool
(** Reflexive graph reachability, semantically equal to
    {!Ppd.Pardyn.node_hb}; exponentially slower than its vector
    clocks. *)

val run_logged :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?tier:Trace.Log.tier ->
  Analysis.Eblock.t ->
  Runtime.Machine.halt * Trace.Log.t * Ppd.Pardyn.t
(** {!Trace.Logger.run_logged} with the observer beside the logger: the
    halt, the log, and the graph built live from the same run. *)
