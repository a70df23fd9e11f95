module M = Runtime.Machine

type t = {
  eb : Analysis.Eblock.t;
  halt : M.halt;
  machine : M.t;
  log : Trace.Log.t;
  ctl : Controller.t Lazy.t;
}

let of_program ?(sched = Runtime.Sched.default)
    ?(max_steps = 1_000_000) ?policy ?breakpoints
    ?log_sink ?(log_order = false) ?ckpt_every prog =
  let eb = Analysis.Eblock.analyze ?policy prog in
  (* Order-tier recording (DESIGN §16) must remember how to re-execute:
     the tier metadata names the scheduler and step budget. *)
  let tier =
    if log_order then Trace.Log.order_tier ~sched ~max_steps
    else Trace.Log.T_content
  in
  let logger = Trace.Logger.create ?sink:log_sink ~tier ?ckpt_every eb in
  let hooks = Trace.Logger.factory logger in
  let machine = M.create ~sched ~max_steps ~hooks ?breakpoints prog in
  let halt = Obs.phase "execution" (fun () -> M.run machine) in
  let log = Trace.Logger.finish logger in
  {
    eb;
    halt;
    machine;
    log;
    ctl = lazy (Controller.start eb log);
  }

let run ?sched ?max_steps ?policy ?breakpoints ?log_sink ?log_order
    ?ckpt_every src =
  of_program ?sched ?max_steps ?policy ?breakpoints ?log_sink
    ?log_order ?ckpt_every (Lang.Compile.compile src)

let prog t = t.eb.Analysis.Eblock.prog

let eblocks t = t.eb

let halt t = t.halt

let machine t = t.machine

let output t = M.output t.machine

let log t = t.log

let controller t = Lazy.force t.ctl

let deadlock t = Deadlock.analyze t.machine

let halt_pid t =
  match t.halt with
  | M.Fault { pid; _ } | M.Breakpoint { pid; _ } -> pid
  | M.Finished | M.Deadlock _ | M.Out_of_fuel -> 0

let error_node t = Controller.last_event_node (controller t) ~pid:(halt_pid t)

let explain_halt t =
  match t.halt with
  | M.Finished -> "execution finished normally"
  | M.Out_of_fuel -> "execution stopped: step budget exhausted"
  | M.Deadlock blocked ->
    Printf.sprintf "deadlock: %s"
      (String.concat "; "
         (List.map
            (fun (pid, r) -> Printf.sprintf "process %d blocked in %s" pid r)
            blocked))
  | M.Breakpoint { pid; sid } ->
    Printf.sprintf "breakpoint: process %d stopped after s%d (%s)" pid sid
      (Lang.Prog.stmt_label (prog t).Lang.Prog.stmts.(sid))
  | M.Fault { pid; sid; msg } ->
    Printf.sprintf "fault in process %d%s: %s" pid
      (match sid with
      | None -> ""
      | Some s -> Printf.sprintf " at s%d (%s)" s
          (Lang.Prog.stmt_label (prog t).Lang.Prog.stmts.(s)))
      msg
