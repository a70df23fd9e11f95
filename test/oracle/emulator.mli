(** The replay oracle: the emulation package stepping e-blocks over the
    AST with {!Ast_step}. {!Ppd.Emulator} steps them on
    the bytecode VM; tests replay every interval with both and require
    the same outcome.

    The emulation package (§5.3): re-execute a single log interval from
    its prelog, regenerating the full event trace that the execution
    phase deliberately did not record.

    Replay is local to one process. The prelog restores the frame and
    the reachable shared variables into a private overlay store;
    synchronization statements do not touch real semaphores or channels
    but consume the interval's {e sync records} (received values, token
    provenance, spawned pids, join results) and apply the following
    {e sync-unit prelogs} to the overlay (§5.5) — this is what makes
    replay faithful for parallel programs despite irreproducible
    interleavings. Nested e-block calls are skipped per §5.2: their
    postlog is applied to the overlay and the call shows up as an
    unexpanded sub-graph node; inlined callees are re-executed.

    Replay validates itself against the log: every sync record must
    match the statement and sequence number reached, and regenerated
    postlog values can be checked against the recorded ones. A
    {!Replay_mismatch} means the log is inconsistent with re-execution —
    for race-free programs this is a bug; in the presence of data races
    it is expected (§5.5: "the log entries are not valid") and the race
    detector explains why. *)

exception Replay_mismatch of string

type outcome = {
  events : (int * Runtime.Event.t) list;
      (** (seq, event), exactly matching the original execution's
          numbering; skipped nested e-blocks leave seq gaps *)
  steps : int;
  output : string;  (** re-generated [print] output *)
  fault : string option;
      (** the runtime fault reproduced, for intervals that crashed *)
  overrun : bool;
      (** true iff the replay hit its step budget before reaching the
          interval's end — a runaway replay, not a reproduced fault *)
  postlog_mismatches : string list;
      (** non-empty when regenerated final values differ from the
          recorded postlog (races or analysis bugs) *)
}

val replay :
  ?on_event:(seq:int -> Runtime.Event.t -> unit) ->
  ?max_steps:int ->
  ?overrides:(Lang.Prog.var * Runtime.Value.t) list ->
  ?validate:bool ->
  Analysis.Eblock.t ->
  Trace.Log.t ->
  interval:Trace.Log.interval ->
  outcome
(** [overrides] perturbs the restored prelog state before re-execution —
    the §5.7 experiment: "the user could change the values of variables
    and re-start the program from the same point to see the effect of
    these changes on program behavior". With overrides the re-executed
    control flow may diverge from the log, so pass [~validate:false] to
    tolerate sync records that no longer line up (the replay then treats
    the log as an oracle for values it still needs, best-effort). *)
