(** Both execution-phase machines behind one view, for the vm = interp
    differential checks: {!Runtime.Machine} (the product, stepping on
    the bytecode VM) and {!Interp_machine} (the AST oracle with its own
    driver). *)

type run = {
  halt : Runtime.Machine.halt;
  output : string;
  nsteps : int;
  seqs : int array;  (** each process's event count *)
  globals : Runtime.Value.t array;  (** the final shared store *)
}
(** What a finished run leaves. *)

val vm :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?breakpoints:int list ->
  ?hooks:Runtime.Hooks.factory ->
  Lang.Prog.t ->
  run

val interp :
  ?sched:Runtime.Sched.policy ->
  ?max_steps:int ->
  ?breakpoints:int list ->
  ?hooks:Runtime.Hooks.factory ->
  Lang.Prog.t ->
  run

val diff : run -> run -> string option
(** The first difference between an interpreter run and a VM run, in
    the order halt, output, step clock, process count, per-process
    event counts, globals; [None] when they agree. *)

val trace_diff : Full_trace.t -> Full_trace.t -> string option
(** The first event where an interpreter trace and a VM trace differ
    (pid, seq, step, event), or their lengths. *)
