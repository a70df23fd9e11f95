(** Dispatch-loop VM over {!Lang.Bytecode} — the execution-phase fast
    path (DESIGN §15).

    {!run} executes up to [budget] statements of one process in a
    burst: expression instructions run to each statement's terminator,
    mirroring {!Interp.step_local} statement for statement, and every
    statement costs one [tick] so the machine's step clock and
    scheduler accounting stay identical to single-stepping.
    Driver-handled statements are returned unconsumed ([Driver]) so the
    machine can retry a blocking sync op, and a frame that falls off
    the end of its code reports [Frame_done].

    Registers are unboxed ints drawn from a per-process arena
    ({!pstate}); variable slots stay in the {!Interp.frame} embedded in
    every VM frame, which is what keeps instrumentation snapshots and
    driver-side operand evaluation engine-blind. *)

type pstate = {
  mutable regs : int array;
  mutable rtop : int;
  mutable acc : Event.rw list;
  mutable budget : int;
}

val make_pstate : unit -> pstate

type frame = {
  fr : Interp.frame;
  code : Lang.Bytecode.instr array;
  sids : int array;
  rbase : int;
  mutable pc : int;
}

(** How the VM talks back to the machine. With [want] true (an
    observer reads local statement events) every completed statement is
    materialized as the exact event the interpreter would emit;
    otherwise only [fast_event]/[fast_print] fire (seq accounting,
    breakpoints, program output). [loops] alone decides whether loop
    enter/exit events are emitted; [want] implies [loops]. *)
type host = {
  want : bool;
  loops : bool;
  emit : Event.t -> unit;
  fast_event : int -> unit;
  fast_print : int -> int -> unit;
  has_bp : bool;
      (** breakpoints exist, so bare statements must route through
          [fast_event] (halt check) instead of the inline seq bump *)
  seq : int ref;  (** the process's event-seq counter (shared cell) *)
  steps : int ref;
      (** the machine's global step clock (shared cell) — bumped once
          at the start of every statement of a burst so log timestamps
          match single-stepping byte for byte *)
  stop : bool ref;
      (** set by the machine when an emitted event halted it
          (breakpoint); ends the burst after the current statement *)
  glb : Value.t array;
  unbound : int -> unit;
      (** called with a global slot when an access to its cell is about
          to fault (uninitialised, wrong shape, out of bounds), before
          the fault: e-block replay raises its own error here for a
          slot that no prelog covered *)
}

type result = Stepped | Driver of Lang.Prog.stmt | Frame_done

val make_frame :
  Lang.Bytecode.prog ->
  Lang.Prog.t ->
  pstate ->
  fid:int ->
  args:Value.t list ->
  ret_lhs:Lang.Prog.lhs option ->
  call_sid:int option ->
  frame
(** Fresh frame with a register window carved from the arena; slot
    initialization (and the arity fault) is identical to
    {!Interp.make_frame}. *)

val release : pstate -> frame -> unit
(** Return the frame's register window to the arena (call when the
    frame is popped). *)

val current_sid : frame -> int
(** Statement id at the resting pc, [-1] at the implicit return — the
    machine's fault-attribution sid, matching the interpreter's
    work-list head convention. *)

val rest : frame -> int -> unit
(** Rest the pc at the given instruction, following jumps: how the
    replay driver starts a loop e-block at its condition and moves past
    a skipped one. *)

val consume : frame -> unit
(** The driver completed the sync statement at the pc: advance past
    it. *)

val run : frame -> pstate -> host -> budget:int -> result
(** Execute up to [budget] (>= 1) statements of the top frame as one
    burst. Returns [Stepped] when the budget ran out (or the host set
    [stop]) with the frame intact, [Driver s] when a sync statement
    needs the machine (its tick already counted; the pc rests on it
    until {!consume}), and [Frame_done] at the implicit return. *)
