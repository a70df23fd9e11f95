(** One-stop debugging sessions: the three phases of §3.2 in one call.

    [run src] performs the preparatory phase (compile + semantic
    analyses + e-block construction), the execution phase (a run
    recorded by the logger alone), and hands back everything the
    debugging phase needs: the halt status, the log, a lazily created
    {!Controller} and deadlock analysis. Race answers come from the log,
    through the controller ({!Controller.race}), as for a saved log. *)

type t

val run :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?policy:Analysis.Eblock.policy ->
  ?breakpoints:int list ->
  ?log_sink:Trace.Logger.sink ->
  ?log_order:bool ->
  ?ckpt_every:int ->
  string ->
  t
(** Compile and execute MPL source with logging attached. [log_sink]
    additionally streams every log entry out as it is produced (e.g. a
    {!Store.Segment.Writer} appending the durable segment file).
    [log_order] (default [false]) records an order-tier log instead of
    a content log (DESIGN §16): only the sync-event partial order plus
    a checkpoint every [ckpt_every] machine steps
    ({!Trace.Logger.default_ckpt_every}) — the debugging phase then
    reconstructs the content log by validated re-execution on first
    use of the controller. Raises
    {!Lang.Diag.Error} on front-end errors, [Invalid_argument] when
    [log_order] is combined with a scripted/guided scheduler (no spec
    string to record). *)

val of_program :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?policy:Analysis.Eblock.policy ->
  ?breakpoints:int list ->
  ?log_sink:Trace.Logger.sink ->
  ?log_order:bool ->
  ?ckpt_every:int ->
  Lang.Prog.t ->
  t
(** [breakpoints] halt the machine after any of the given statements
    executes (user intervention, §3.2.2); the debugging phase then
    starts from that event. *)

val prog : t -> Lang.Prog.t

val eblocks : t -> Analysis.Eblock.t

val halt : t -> Runtime.Machine.halt

val machine : t -> Runtime.Machine.t

val output : t -> string

val log : t -> Trace.Log.t

val controller : t -> Controller.t
(** A serial controller over the session's log with the default
    {!Controller.config}, created on first use and cached. *)

val deadlock : t -> Deadlock.analysis

val halt_pid : t -> int
(** The process debugging starts from: the faulting or breakpoint
    process, or the main process 0 when the run did not stop in one. *)

val error_node : t -> int option
(** The dynamic-graph node at which debugging starts: the last event of
    {!halt_pid}. *)

val explain_halt : t -> string
(** One-paragraph description of why execution stopped. *)
