(** The logging instrumentation — the paper's "object code" side of
    incremental tracing (§5.1, §5.5, §5.6).

    Given the e-block analysis, the logger observes machine events and
    emits per-process log entries:
    - [E_proc_start] / [E_enter] of an e-block -> prelog (snapshotting
      the block's upward-exposed variables through the port);
    - [E_leave] of an e-block / [E_proc_exit] -> postlog;
    - [E_enter] of an inlined function -> sync-unit prelog for the
      callee's entry unit (shared variables only);
    - sync statement events -> a sync record, followed by the
      sync-unit prelog of the unit starting after the operation;
    - [K_call_return] -> the sync-unit prelog of the unit resuming
      after the call site.

    Everything is deep-copied at snapshot time, so logs stay valid as
    execution proceeds. *)

type t

type sink = {
  sink_entry : pid:int -> Log.entry -> unit;
      (** Called for every log entry the moment it is produced, in
          per-process chronological order (processes interleave). The
          durable store uses this to append records streamingly instead
          of marshalling the whole log at exit. *)
  sink_ckpt : Log.ckpt -> unit;
      (** Called for every periodic checkpoint (order tier only); the
          store writes it as its own frame and indexes its offset. *)
  sink_close : stops:int array -> unit;
      (** Called once by {!finish} with the final per-process stop
          sequence numbers; the store writes its footer index here. *)
}
(** A streaming consumer of log entries (dependency inversion: [trace]
    cannot depend on the store, so the store plugs in here). *)

val default_ckpt_every : int
(** Default checkpoint interval in machine steps (order tier). *)

val create :
  ?sink:sink -> ?tier:Log.tier -> ?ckpt_every:int -> Analysis.Eblock.t -> t
(** [tier] selects what gets recorded: [T_content] (default) keeps
    every entry; [T_order _] keeps only sync records plus periodic
    checkpoints every [ckpt_every] machine steps. *)

val factory : t -> Runtime.Hooks.factory
(** Pass to {!Runtime.Machine.create}. Declares [locals = false]:
    alone, the logger keeps a VM run's local statements on the bare
    path. *)

val finish : t -> Log.t
(** Snapshot the accumulated log (callable once the run halts). The
    per-process stops come from the machine's event counters
    ([Runtime.Hooks.port.seq_of]), not from the last event seen. *)

val run_logged :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?sink:sink ->
  ?tier:Log.tier ->
  ?ckpt_every:int ->
  Analysis.Eblock.t ->
  (Runtime.Machine.halt * Log.t * Runtime.Machine.t)
(** Convenience: create a machine over the analysed program with logging
    attached, run it, and return the halt status, the log and the
    machine (for output/global inspection). *)
