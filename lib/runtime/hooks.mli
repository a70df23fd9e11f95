(** Instrumentation interface between the machine and observers.

    A hooks {e factory} receives a {!port} — callbacks into the running
    machine for reading variable values and the global step clock — and
    returns the event consumer. The logger uses the port to snapshot
    prelog/postlog variable values at e-block boundaries.

    Events are built on demand. An observer that declares
    [locals = false] never sees the events of VM-local statements
    (assign, predicate, print, assert) or their read lists: a machine
    whose observers all decline them runs those statements on the VM's
    zero-allocation bare path (DESIGN §15.4). Driver events (process
    start/exit, call/enter/leave/call-return, return, sync) and loop
    enter/exit events reach every observer. *)

type port = {
  read_var : pid:int -> Lang.Prog.var -> Value.t;
      (** Current value: globals from the shared store, locals from the
          process's top frame. *)
  now : unit -> int;  (** Global machine step counter. *)
  seq_of : pid:int -> int;
      (** Events process [pid] has emitted so far, delivered or not: the
          exact per-process stop of a run, even when it ends on a local
          statement the observer never saw. *)
}

type t = {
  on_event : pid:int -> seq:int -> Event.t -> unit;
  locals : bool;
      (** This observer reads assign/pred/print/assert events and their
          read lists. *)
}

type factory = port -> t

val nil : factory
(** No instrumentation (the bare execution baseline); declines local
    events. *)
