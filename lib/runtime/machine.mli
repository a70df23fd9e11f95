(** The execution-phase machine: a simulated shared-memory
    multiprocessor running an MPL program.

    Processes are lightweight interpreter states scheduled one event at
    a time by a {!Sched} policy; they share the global store, semaphores
    and channels. Instrumentation ({!Hooks.factory}) observes every
    event — this is how the "object code" of the paper emits its log,
    and how the full tracer and race detector watch execution.

    Synchronization semantics (matching §6.2):
    - [P]/[V]: counting semaphores with token provenance — each [V]
      deposits a token carrying its event ref; a successful [P] consumes
      the oldest token, which becomes the V→P synchronization edge.
      Initial credits carry no provenance.
    - channels: capacity [None] = unbounded buffer, [Some k > 0] =
      bounded buffer (send blocks when full, without an event), and
      [Some 0] = synchronous: the send event is emitted immediately, the
      sender then blocks until the matching receive, and resumes with a
      distinct send-unblocked event (Figure 6.1's n3 → n4 → n5 pattern).
    - [spawn] creates a process whose start event links back to the
      spawn event; [join] blocks until the child exits and links from
      the child's exit event.

    A runtime fault (division by zero, failed assert, uninitialised
    read, ...) halts the whole machine — that is the "program halts due
    to an error" moment at which the debugging phase begins.

    Every product run steps on {!Vm_engine}: each function compiled to
    {!Lang.Bytecode}, local statements on a dispatch-loop VM (DESIGN
    §15). {!Interp_engine} walks the AST and is only a test oracle,
    reached through [create ~engine]. Both engines share the driver
    for sync ops, calls and returns, and the slot representation read
    by instrumentation, so event streams, trace logs, scheduling
    decisions and halts are identical — only steps/sec differs. *)

type engine = Interp_engine | Vm_engine

type halt =
  | Finished  (** every process ran to completion *)
  | Deadlock of (int * string) list
      (** no process runnable; blocked pids with reasons *)
  | Fault of { pid : int; sid : int option; msg : string }
  | Breakpoint of { pid : int; sid : int }
      (** halted by user intervention (§3.2.2): the breakpoint statement
          has just executed in this process *)
  | Out_of_fuel

type proc_state = Ready | Blocked of string | Done

(** Structured blocking information, for deadlock analysis. *)
type wait =
  | Wsem of int  (** blocked in [P] on this semaphore *)
  | Wsend of int  (** blocked sending on this channel (full or synchronous) *)
  | Wrecv of int  (** blocked receiving on this channel *)
  | Wjoin of int  (** waiting for this process to exit *)

type t

val create :
  ?engine:engine ->
  ?sched:Sched.policy ->
  ?max_steps:int ->
  ?hooks:Hooks.factory ->
  ?breakpoints:int list ->
  Lang.Prog.t ->
  t
(** Defaults: {!Vm_engine}, {!Sched.default}, one million steps, no
    instrumentation, no breakpoints. When [hooks] is omitted the machine
    skips event materialization entirely — the VM takes its bare local
    fast path and the driver accounts for sync/call/return events
    without allocating them — which is the bare-execution fast path
    benchmarked by T1. Sequence numbers, the step clock, breakpoint
    checks and program output are identical either way. [breakpoints] are
    statement ids; the machine halts with {!Breakpoint} right after any
    of them produces an event — postlog-based restoration then gives
    every other process's state at its own last e-block boundary, the
    paper's answer to the timely-halt problem (§5.7). *)

val run : t -> halt
(** Run to halt. *)

val step_one : t -> bool
(** Advance one scheduled event; [false] when halted (inspect
    {!status}). Exposed for tests that interleave inspection. *)

val status : t -> halt option

val output : t -> string
(** Everything printed so far, one line per [print]. *)

val nsteps : t -> int

val nprocs : t -> int

val proc_state : t -> int -> proc_state

val blocked_wait : t -> int -> wait option
(** What process [pid] is currently blocked on, if anything. *)

val proc_seq : t -> int -> int
(** Events emitted by process [pid] so far. *)

val proc_root : t -> int -> int
(** The function this process was created to run. *)

val read_global : t -> int -> Value.t
(** Shared-store slot value (used by tests and the restorer). *)

val prog : t -> Lang.Prog.t
