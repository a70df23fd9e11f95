(** The AST statement stepper: the reference semantics the bytecode VM
    is checked against.

    A frame is the product's slot record ({!Runtime.Interp.frame}) plus
    a work list of statements still to run. {!step_local} executes
    {e local} statements (assignments, predicates, prints, asserts) and
    hands synchronization operations, calls, returns and loops to the
    surrounding driver: {!Interp_machine} performs them against live
    semaphores, channels and processes, {!Emulator} replays them from a
    log (§5.3). Expressions go through the product's evaluator. *)

type work =
  | Wstmt of Lang.Prog.stmt
  | Wloop of Lang.Prog.stmt  (** re-test of a [while] condition *)

type frame = { fr : Runtime.Interp.frame; mutable work : work list }

val make_frame :
  Lang.Prog.t ->
  fid:int ->
  args:Runtime.Value.t list ->
  ret_lhs:Lang.Prog.lhs option ->
  call_sid:int option ->
  frame
(** Fresh frame: parameters bound to [args], scalars [Vundef], local
    arrays allocated zero-filled, the function body as work. *)

val consume_work : frame -> unit
(** Pop the head work item (used by drivers after completing a
    driver-handled statement). *)

type local_result =
  | Event of Runtime.Event.stmt_event
      (** a local statement executed; work consumed *)
  | Driver of Lang.Prog.stmt
      (** head is a sync/call/return/loop statement; work {e not}
          consumed so a blocking driver can retry it *)
  | Frame_done  (** the frame's work list is empty (fell off the end) *)

val step_local : Runtime.Interp.ctx -> frame -> local_result
(** One step of [frame], whose slots the context's frame must be. *)

val loop_entry : frame -> Lang.Prog.stmt -> unit
(** Begin executing a [while] loop whose [Wstmt] is the head work item:
    convert it to the [Wloop] retest form and mark it active. The driver
    emits [E_loop_enter] around this. *)

val loop_test :
  Runtime.Interp.ctx -> frame -> Lang.Prog.stmt -> Runtime.Event.stmt_event * bool
(** One condition test of the head [Wloop]: enters the body ([true]) or
    leaves the loop ([false], driver emits [E_loop_exit]). *)
