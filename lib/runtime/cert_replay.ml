module P = Lang.Prog
module Proto = Analysis.Proto
module Eff = Analysis.Effects

type result =
  | Confirmed of { schedule : int list; blocked : (int * string) list }
  | Diverged of string

let halt_name = function
  | Machine.Finished -> "finished"
  | Machine.Deadlock _ -> "deadlock"
  | Machine.Fault { msg; _ } -> "fault: " ^ msg
  | Machine.Breakpoint _ -> "breakpoint"
  | Machine.Out_of_fuel -> "out of fuel"

(* Communication events are the only ones a certificate step can match
   (or diverge on); everything else a process emits on the way to its
   next synchronization is ignored. [K_send_unblocked] is deliberately
   not a communication kind here: the abstract model folds a rendezvous
   into one send + one recv step, and the sender's resume event has no
   counterpart in the certificate. *)
let comm_kind = function
  | Event.K_p _ | Event.K_v _ | Event.K_send _ | Event.K_recv _
  | Event.K_spawn _ | Event.K_join _ ->
    true
  | _ -> false

let pp_kind_short k = Format.asprintf "%a" Event.pp_kind k

let validate ?(max_steps = 200_000) (p : P.t) (cert : Proto.cert) =
  let remaining = ref cert.Proto.cert_steps in
  let nsteps_total = List.length cert.Proto.cert_steps in
  (* thread-class id -> concrete pid; the main class is pid 0, spawned
     classes are learned from their spawn events *)
  let cls_pid = Hashtbl.create 8 in
  Hashtbl.replace cls_pid 0 0;
  let diverged = ref None in
  let fail fmt =
    Printf.ksprintf (fun m -> if !diverged = None then diverged := Some m) fmt
  in
  let schedule = ref [] in
  let matches (act : Eff.action) (k : Event.kind) =
    match (act, k) with
    | Eff.Send c, Event.K_send { chan; _ } -> chan = c
    | Eff.Recv c, Event.K_recv { chan; _ } -> chan = c
    | Eff.SemP s, Event.K_p { sem; _ } -> sem = s
    | Eff.SemV s, Event.K_v { sem } -> sem = s
    | Eff.Spawn _, Event.K_spawn _ ->
      (* the spawn sid identified the site, and a site is one class *)
      true
    | Eff.Join c2, Event.K_join { child; _ } ->
      Hashtbl.find_opt cls_pid c2 = Some child
    | _ -> false
  in
  let on_event ~pid ~seq:_ (ev : Event.t) =
    if !diverged = None then
      match !remaining with
      | [] -> () (* draining the blocked prefix into the deadlock *)
      | step :: rest -> (
        if Hashtbl.find_opt cls_pid step.Proto.st_cls = Some pid then
          match (step.Proto.st_act, ev) with
          | Proto.Finish, Event.E_proc_exit _ -> remaining := rest
          | Proto.Finish, Event.E_stmt { sid; kind; _ } when comm_kind kind ->
            fail "pid %d performed %s at s%d where the certificate finishes"
              pid (pp_kind_short kind) sid
          | Proto.Act act, Event.E_stmt { sid; kind; _ } when comm_kind kind ->
            if sid = step.Proto.st_sid && matches act kind then begin
              (match (act, kind) with
              | Eff.Spawn c2, Event.K_spawn { child; _ } ->
                Hashtbl.replace cls_pid c2 child
              | _ -> ());
              remaining := rest
            end
            else
              fail "pid %d performed %s at s%d, certificate expected %s at s%d"
                pid (pp_kind_short kind) sid
                (Format.asprintf "%a" (Proto.pp_step p) step)
                step.Proto.st_sid
          | Proto.Act _, Event.E_proc_exit _ ->
            fail "pid %d exited with %d certificate step(s) left for it" pid
              (List.length !remaining)
          | _ -> () (* non-communication event en route to the action *))
  in
  (* only communication events and exits can match a step: local
     statement events are never needed *)
  let hooks _port = { Hooks.on_event; locals = false } in
  let fallback runnable =
    let pick = List.hd runnable in
    schedule := pick :: !schedule;
    pick
  in
  let chooser ~runnable =
    match !remaining with
    | [] -> fallback runnable
    | step :: _ -> (
      match Hashtbl.find_opt cls_pid step.Proto.st_cls with
      | Some t when List.mem t runnable ->
        schedule := t :: !schedule;
        t
      | Some t ->
        fail
          "class %d (pid %d) is not runnable for certificate step %d of %d"
          step.Proto.st_cls t
          (nsteps_total - List.length !remaining + 1)
          nsteps_total;
        fallback runnable
      | None ->
        fail "certificate steps class %d before its spawn" step.Proto.st_cls;
        fallback runnable)
  in
  let m = Machine.create ~sched:(Sched.Guided chooser) ~max_steps ~hooks p in
  let halt = Machine.run m in
  match (!diverged, halt, !remaining) with
  | Some msg, _, _ -> Diverged msg
  | None, Machine.Deadlock blocked, [] ->
    Confirmed { schedule = List.rev !schedule; blocked }
  | None, Machine.Deadlock _, _ :: _ ->
    Diverged "machine deadlocked before consuming every certificate step"
  | None, halt, _ ->
    Diverged
      (Printf.sprintf "machine halted with %s instead of a deadlock"
         (halt_name halt))

let confirm_scripted ?(max_steps = 200_000) (p : P.t) schedule =
  let m = Machine.create ~sched:(Sched.Scripted schedule) ~max_steps p in
  match Machine.run m with Machine.Deadlock _ -> true | _ -> false
