(** The interpreter oracle: the execution-phase machine stepping every
    statement over the AST with {!Ast_step}, under its own copy of the
    driver for sync operations, calls and returns.

    {!Runtime.Machine} runs the bytecode VM under the product's driver.
    The two share only the evaluator ({!Runtime.Interp}), the scheduler
    and the instrumentation interface, so an agreement on the event
    stream (pid, seq, step, event), halt, output, step clock,
    per-process event counts and final globals checks both the VM and
    the product driver. As in the product, a run without [hooks]
    accounts for sync, call and return events without building them;
    local statement events are always built. *)

type halt = Runtime.Machine.halt =
  | Finished
  | Deadlock of (int * string) list
  | Fault of { pid : int; sid : int option; msg : string }
  | Breakpoint of { pid : int; sid : int }
  | Out_of_fuel

type t

val create :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?hooks:Runtime.Hooks.factory ->
  ?breakpoints:int list ->
  Lang.Prog.t ->
  t
(** Same defaults and meaning as {!Runtime.Machine.create}. *)

val run : t -> halt

val output : t -> string

val nsteps : t -> int

val nprocs : t -> int

val proc_seq : t -> int -> int

val read_global : t -> int -> Runtime.Value.t
