(** Sequential evaluation core shared by the execution-phase machine's
    driver ("object code") and the bytecode VM.

    The core evaluates expressions (collecting reads in
    short-circuit-aware evaluation order) and performs writes against
    a frame's variable slots. Statements are stepped by {!Vm}; the
    machine's driver uses this core for the operands and targets of
    synchronization operations, calls and returns, and the VM's event
    mode records exactly the reads and writes this core would. The
    debugging phase replays e-blocks on the same VM against an overlay
    store (§5.3). *)

exception Fault of string
(** Runtime error: division by zero, uninitialised read, array index out
    of bounds, failed assertion, bad process id... The driver converts
    this into a halt. *)

type frame = {
  ffid : int;
  slots : Value.t array;
  mutable active_loops : int list;
      (** sids of the [while] loops currently executing in this frame,
          innermost first — the driver closes their loop e-blocks when a
          [return] unwinds them *)
  ret_lhs : Lang.Prog.lhs option;  (** where the caller stores the result *)
  call_sid : int option;  (** the call statement, [None] for process roots *)
}

type ctx = {
  prog : Lang.Prog.t;
  read_global : int -> Value.t;  (** by global slot *)
  write_global : int -> Value.t -> unit;
  frame : frame;
}

val binds_of_frame : Lang.Prog.t -> frame -> (Lang.Prog.var * Value.t) list
(** Parameter bindings, for [E_enter]/[E_proc_start] events. *)

val read_var : ctx -> Lang.Prog.var -> Value.t

val eval_int : ctx -> Lang.Prog.expr -> int * Event.rw list

val eval_bool : ctx -> Lang.Prog.expr -> bool * Event.rw list

val write_lhs : ctx -> Lang.Prog.lhs -> Value.t -> Event.rw list * Event.rw
(** [write_lhs ctx l v] evaluates the index (if any), performs the
    write, and returns (index reads, the write record). Writing [Vundef]
    to a scalar is allowed (it faults only when later read); writing it
    to an array element faults immediately. *)
