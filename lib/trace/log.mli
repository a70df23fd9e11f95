(** Execution-phase logs: the output of incremental tracing (§3.2.2,
    §5.1).

    One log per process, containing only:
    - {b prelogs} at e-block entry — values of the variables the block
      may read before writing (USED, upward-exposed);
    - {b postlogs} at e-block exit — values of the variables the block
      may have written (DEFINED), plus the returned value;
    - {b sync-unit prelogs} at synchronization-unit boundaries — values
      of the shared variables the upcoming unit may read (§5.5);
    - {b sync records} — one per synchronization event, carrying exactly
      the payload replay needs (received values, token provenance, child
      pids, join results).

    Everything else — the vast majority of events — is {e not} logged;
    the emulation package regenerates it on demand during the debugging
    phase. *)

type eref = Runtime.Event.eref

type sync_data =
  | S_kind of Runtime.Event.kind  (** a sync statement event *)
  | S_proc_start of { fid : int; spawn : eref option }
  | S_proc_exit of { fid : int; result : Runtime.Value.t option }

(** Which e-block a prelog/postlog brackets: a subroutine invocation or
    one execution of a loop that the §5.4 policy promoted to its own
    e-block. *)
type block = Bfunc of int  (** fid *) | Bloop of int  (** sid of the while *)

val pp_block : Format.formatter -> block -> unit

type prelog_point =
  | At_block_entry  (** regular e-block prelog *)
  | After_sync of int  (** sid of the sync/call statement starting the unit *)
  | At_inlined_entry of int  (** fid of a non-e-block callee being entered *)

type entry =
  | Prelog of {
      block : block;
      caller_sid : int option;
          (** the call statement that opened this block; [None] for
              process-root blocks *)
      seq_at : int;  (** process event count when taken *)
      step_at : int;  (** global machine step *)
      vals : (int * Runtime.Value.t) list;  (** vid -> deep-copied value *)
    }
  | Postlog of {
      block : block;
      seq_at : int;
      step_at : int;
      vals : (int * Runtime.Value.t) list;
      ret : Runtime.Value.t option;
      via_return : Runtime.Value.t option option;
          (** for loop e-blocks: [Some r] when the loop ended because a
              [return r] unwound it — skipping the loop must then also
              leave the enclosing function *)
    }
  | Sync_prelog of {
      point : prelog_point;
      seq_at : int;
      step_at : int;
      vals : (int * Runtime.Value.t) list;  (** shared variables only *)
    }
  | Sync of {
      sid : int option;  (** [None] for process start/exit *)
      seq : int;  (** the event's sequence number *)
      step_at : int;
      data : sync_data;
    }

(** How the log was captured (DESIGN §16). A {e content} log carries
    value snapshots in pre/post/sync-unit logs and can be debugged
    directly. An {e order} log carries only the sync-event partial
    order plus periodic checkpoints; debugging it first reconstructs an
    equivalent content log by deterministic re-execution, which needs
    the recorded scheduler, engine and step budget. *)
type tier_meta = {
  o_sched : string;  (** scheduler spec, e.g. ["rr:3"] *)
  o_engine : string;  (** ["vm"] or ["interp"] *)
  o_max_steps : int;  (** the recording run's step budget *)
}

type tier = T_content | T_order of tier_meta

(** A periodic full-state checkpoint: the shared store and the global
    sync frontier (per-pid count of sync events performed) at step
    [ck_step]. The cut is inclusive: every log entry with
    [step_at <= ck_step] is covered by the snapshot; entries strictly
    after it are not — restore seeds from the checkpoint and applies
    only entries with [step_at > ck_step]. *)
type ckpt = {
  ck_step : int;
  ck_clock : int array;
  ck_globals : Runtime.Value.t array;
}

type t = {
  nprocs : int;
  entries : entry array array;  (** per pid, in emission order *)
  stops : int array;
      (** per pid: the number of events the process had emitted when the
          machine halted. Replays of still-open intervals must stop at
          this bound — events beyond it never happened (the process was
          preempted, blocked, or the run hit a fault/breakpoint in some
          process). *)
  tier : tier;
  ckpts : ckpt array;  (** in step order *)
  base : int array;
      (** per pid: the index, in the process's whole log, of
          [entries.(pid).(0)]. [0] in a whole log; a paged window
          ({!Store.Segment.window}) holds only the pages one interval
          touches and records where they start. Interval indices
          ([iv_prelog], [iv_postlog]) are always whole-log indices. *)
}

val content :
  nprocs:int -> entries:entry array array -> stops:int array -> t
(** A content-tier log with no checkpoints (the historical shape). *)

val tier_name : tier -> string
(** ["content"] or ["order"]. *)

val sync_entries : t -> pid:int -> entry list
(** The sync skeleton of one process: exactly what an order-tier log
    records. Used by [ppd log compact] and the reconstruction
    validator. *)

(** A log interval [I_i]: from prelog(i) to the matching postlog(i)
    (§5.1), with the §5.2 nesting structure. *)
type interval = {
  iv_id : int;  (** index within the process's interval array *)
  iv_pid : int;
  iv_block : block;
  iv_fid : int;  (** the enclosing function, for loop blocks too *)
  iv_prelog : int;  (** entry index of the prelog *)
  iv_postlog : int option;  (** entry index; [None] if still open at halt *)
  iv_seq_start : int;
  iv_seq_end : int option;  (** events with seq in [start, end) belong here *)
  iv_parent : int option;
  iv_children : int list;  (** nested intervals, in order *)
}

val intervals : ?stmt_fid:(int -> int) -> t -> pid:int -> interval array
(** Reconstruct the (nested) log intervals of one process. [stmt_fid]
    maps a loop block's sid to its enclosing function so loop intervals
    can report an [iv_fid]; without it they report [-1]. *)

val entry_count : t -> int

val entry_seq_at : entry -> int

val entry_step_at : entry -> int
(** The global machine step at which the entry was emitted; monotone
    non-decreasing within one process's entry array. *)

val find_enclosing : interval array -> seq:int -> interval option
(** Innermost interval containing the event with this sequence number. *)

val pp_sync_data : Format.formatter -> sync_data -> unit

val pp_entry : Lang.Prog.t -> Format.formatter -> entry -> unit

val pp : Lang.Prog.t -> Format.formatter -> t -> unit
