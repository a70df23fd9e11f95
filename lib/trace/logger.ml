module P = Lang.Prog
module E = Runtime.Event

(* Execution-phase counters (no-ops until [Obs.enable]): how many
   entries the incremental trace produced, how many variable values the
   prelog/postlog snapshots copied, and how often the per-pid tables
   had to regrow (geometric, so O(log pids) for any spawn pattern). *)
let c_entries = Obs.counter "trace.log_entries"

let c_snapshot_vals = Obs.counter "trace.snapshot_values"

let c_regrowths = Obs.counter "trace.pid_regrowths"

type sink = {
  sink_entry : pid:int -> Log.entry -> unit;
  sink_ckpt : Log.ckpt -> unit;
  sink_close : stops:int array -> unit;
}

type t = {
  eb : Analysis.Eblock.t;
  sink : sink option;
  tier : Log.tier;
  ckpt_every : int;  (* order tier: steps between checkpoints *)
  mutable last_ckpt : int;  (* step of the last emitted checkpoint *)
  mutable ckpts : Log.ckpt list;  (* reversed *)
  mutable port : Runtime.Hooks.port option;
  mutable nprocs : int;  (* pids seen; the arrays below may be larger *)
  mutable logs : Log.entry list ref array;  (* per pid, reversed *)
  mutable sync_count : int array;
      (* per pid: sync entries logged so far — the global frontier a
         checkpoint snapshots as its clock *)
  mutable pending_return : Runtime.Value.t option option array;
      (* per pid: a return is unwinding; loop postlogs record it. Local
         statement events never reach the logger on the VM, so only
         driver events clear it — exactly enough, since the driver's
         [K_call_return] always follows a nested frame's [E_leave]. *)
  (* precomputed instrumentation tables: consulting the analyses on
     every event would dominate the execution-phase overhead (T1) *)
  sync_vars_after : Lang.Prog.var list array;  (* by sid *)
  entry_sync_vars : Lang.Prog.var list array;  (* by fid, inlined callees *)
  loop_vars : (Lang.Prog.var list * Lang.Prog.var list) option array;  (* by sid *)
}

let default_ckpt_every = 256

let create ?sink ?(tier = Log.T_content) ?(ckpt_every = default_ckpt_every) eb =
  let prog = eb.Analysis.Eblock.prog in
  let nstmts = Array.length prog.Lang.Prog.stmts in
  let sync_vars_after =
    Array.init nstmts (fun sid ->
        let fid = prog.Lang.Prog.stmt_fid.(sid) in
        Analysis.Eblock.sync_prelog_vars_after eb ~fid ~sid)
  in
  let entry_sync_vars =
    Array.init
      (Array.length prog.Lang.Prog.funcs)
      (fun fid ->
        if eb.Analysis.Eblock.is_eblock.(fid) then []
        else Analysis.Eblock.sync_prelog_vars_at_entry eb ~fid)
  in
  let loop_vars =
    Array.init nstmts (fun sid -> Analysis.Eblock.loop_block_vars eb ~sid)
  in
  {
    eb;
    sink;
    tier;
    ckpt_every = max 1 ckpt_every;
    last_ckpt = 0;
    ckpts = [];
    port = None;
    nprocs = 1;
    logs = [| ref [] |];
    sync_count = [| 0 |];
    pending_return = [| None |];
    sync_vars_after;
    entry_sync_vars;
    loop_vars;
  }

(* Grow geometrically: doubling keeps heavy spawners at O(pids) total
   copying (the previous exact-fit growth re-copied every array on
   every single new pid — O(pids²) across an execution). [t.nprocs]
   tracks the logical count; [finish] trims the slack. *)
let ensure_pid t pid =
  if pid >= t.nprocs then t.nprocs <- pid + 1;
  let n = Array.length t.logs in
  if pid >= n then begin
    Obs.incr c_regrowths;
    let cap = max (pid + 1) (2 * n) in
    t.logs <- Array.init cap (fun i -> if i < n then t.logs.(i) else ref []);
    t.sync_count <-
      Array.init cap (fun i -> if i < n then t.sync_count.(i) else 0);
    t.pending_return <-
      Array.init cap (fun i -> if i < n then t.pending_return.(i) else None)
  end

(* Entries stream out to the sink the moment they are produced — the
   durable store appends them as the execution phase runs instead of
   dumping the whole log at exit (§5.6). *)
let push t pid entry =
  Obs.incr c_entries;
  let cell = t.logs.(pid) in
  cell := entry :: !cell;
  match t.sink with
  | None -> ()
  | Some s -> s.sink_entry ~pid entry

let content_tier t =
  match t.tier with Log.T_content -> true | Log.T_order _ -> false

(* Value-carrying entries (prelogs, postlogs, sync-unit prelogs) exist
   only in the content tier: the order tier regenerates them by
   deterministic re-execution (DESIGN §16), so it never snapshots or
   stores them. The thunk keeps the snapshot work off the order path. *)
let push_content t pid mk = if content_tier t then push t pid (mk ())

let snapshot t pid vars =
  match t.port with
  | None -> []
  | Some port ->
    if Obs.enabled () then Obs.add c_snapshot_vals (List.length vars);
    List.map
      (fun (v : P.var) ->
        (v.vid, Runtime.Value.copy (port.Runtime.Hooks.read_var ~pid v)))
      vars

let now t =
  match t.port with None -> 0 | Some port -> port.Runtime.Hooks.now ()

(* Order tier: snapshot the shared store and the sync frontier once
   every [ckpt_every] machine steps. Emitted after the current event's
   entries are pushed, so a checkpoint at step S covers exactly the
   entries with [step_at <= S] (the Log.ckpt cut contract). *)
let maybe_ckpt t =
  match (t.tier, t.port) with
  | Log.T_content, _ | _, None -> ()
  | Log.T_order _, Some port ->
    let step = now t in
    if step - t.last_ckpt >= t.ckpt_every then begin
      let prog = t.eb.Analysis.Eblock.prog in
      let globals =
        Array.map
          (fun (v : P.var) ->
            Runtime.Value.copy (port.Runtime.Hooks.read_var ~pid:0 v))
          prog.Lang.Prog.globals
      in
      let ck =
        {
          Log.ck_step = step;
          ck_clock = Array.sub t.sync_count 0 t.nprocs;
          ck_globals = globals;
        }
      in
      t.last_ckpt <- step;
      t.ckpts <- ck :: t.ckpts;
      match t.sink with None -> () | Some s -> s.sink_ckpt ck
    end

(* Sync entries exist in both tiers; they are the partial order. *)
let push_sync t pid entry =
  push t pid entry;
  t.sync_count.(pid) <- t.sync_count.(pid) + 1;
  maybe_ckpt t

(* Sync-unit prelog for the unit starting right after [sid] (§5.5). *)
let sync_unit_prelog t pid ~seq ~sid =
  match t.sync_vars_after.(sid) with
  | [] -> ()
  | vars ->
    push_content t pid (fun () ->
        Log.Sync_prelog
          {
            point = Log.After_sync sid;
            seq_at = seq + 1;
            step_at = now t;
            vals = snapshot t pid vars;
          })

let on_event t ~pid ~seq (ev : E.t) =
  ensure_pid t pid;
  match ev with
  | E.E_proc_start { fid; spawn; _ } ->
    push_sync t pid
      (Log.Sync
         { sid = None; seq; step_at = now t; data = Log.S_proc_start { fid; spawn } });
    push_content t pid (fun () ->
        Log.Prelog
          {
            block = Log.Bfunc fid;
            caller_sid = None;
            seq_at = seq;
            step_at = now t;
            vals = snapshot t pid t.eb.Analysis.Eblock.prelog_vars.(fid);
          })
  | E.E_proc_exit { fid; result } ->
    push_sync t pid
      (Log.Sync
         { sid = None; seq; step_at = now t; data = Log.S_proc_exit { fid; result } });
    push_content t pid (fun () ->
        Log.Postlog
          {
            block = Log.Bfunc fid;
            seq_at = seq + 1;
            step_at = now t;
            vals = snapshot t pid t.eb.Analysis.Eblock.postlog_vars.(fid);
            ret = result;
            via_return = None;
          })
  | E.E_enter { fid; call_sid; _ } ->
    if t.eb.Analysis.Eblock.is_eblock.(fid) then
      push_content t pid (fun () ->
          Log.Prelog
            {
              block = Log.Bfunc fid;
              caller_sid = call_sid;
              seq_at = seq;
              step_at = now t;
              vals = snapshot t pid t.eb.Analysis.Eblock.prelog_vars.(fid);
            })
    else begin
      (* inlined callee: cover its entry synchronization unit *)
      match t.entry_sync_vars.(fid) with
      | [] -> ()
      | vars ->
        push_content t pid (fun () ->
            Log.Sync_prelog
              {
                point = Log.At_inlined_entry fid;
                seq_at = seq;
                step_at = now t;
                vals = snapshot t pid vars;
              })
    end
  | E.E_leave { fid; ret; _ } ->
    if t.eb.Analysis.Eblock.is_eblock.(fid) then
      push_content t pid (fun () ->
          Log.Postlog
            {
              block = Log.Bfunc fid;
              seq_at = seq + 1;
              step_at = now t;
              vals = snapshot t pid t.eb.Analysis.Eblock.postlog_vars.(fid);
              ret;
              via_return = None;
            })
  | E.E_loop_enter { sid } -> (
    match t.loop_vars.(sid) with
    | None -> ()
    | Some (pre, _post) ->
      push_content t pid (fun () ->
          Log.Prelog
            {
              block = Log.Bloop sid;
              caller_sid = None;
              seq_at = seq + 1;
              step_at = now t;
              vals = snapshot t pid pre;
            }))
  | E.E_loop_exit { sid; _ } -> (
    match t.loop_vars.(sid) with
    | None -> ()
    | Some (_pre, post) ->
      push_content t pid (fun () ->
          Log.Postlog
            {
              block = Log.Bloop sid;
              seq_at = seq;
              step_at = now t;
              vals = snapshot t pid post;
              ret = None;
              via_return = t.pending_return.(pid);
            }))
  | E.E_stmt { sid; kind; _ } -> (
    (* track whether a return is currently unwinding active loops *)
    (match kind with
    | E.K_return { value } -> t.pending_return.(pid) <- Some value
    | E.K_call_return _ | E.K_assign | E.K_pred _ | E.K_call _ | E.K_p _
    | E.K_v _ | E.K_send _ | E.K_send_unblocked _ | E.K_recv _ | E.K_spawn _
    | E.K_join _ | E.K_print _ | E.K_assert _ ->
      if t.pending_return.(pid) <> None then t.pending_return.(pid) <- None);
    match kind with
    | E.K_p _ | E.K_v _ | E.K_send _ | E.K_send_unblocked _ | E.K_recv _
    | E.K_spawn _ | E.K_join _ ->
      push_sync t pid
        (Log.Sync { sid = Some sid; seq; step_at = now t; data = Log.S_kind kind });
      sync_unit_prelog t pid ~seq ~sid
    | E.K_call_return _ ->
      (* control resumes after the call site: new unit begins *)
      sync_unit_prelog t pid ~seq ~sid
    | E.K_assign | E.K_pred _ | E.K_call _ | E.K_return _ | E.K_print _
    | E.K_assert _ ->
      ())

(* The logger reads only e-block boundaries and sync events, so it
   declines local statement events: a logged VM run keeps assignments,
   predicates, prints and asserts on the zero-allocation bare path. *)
let factory t port =
  t.port <- Some port;
  {
    Runtime.Hooks.on_event = (fun ~pid ~seq ev -> on_event t ~pid ~seq ev);
    locals = false;
  }

let finish t =
  (* A process's stop is the machine's own event count: the last event
     the logger saw can be one short, when the run ended on a local
     statement it never received (a failing assert, a breakpoint).
     Only [t.nprocs] pids exist — the per-pid arrays may carry
     geometric-growth slack, trimmed here so neither the in-memory log
     nor the durable store ever sees phantom processes. *)
  let stops =
    match t.port with
    | None -> Array.make t.nprocs 0
    | Some port ->
      Array.init t.nprocs (fun pid -> port.Runtime.Hooks.seq_of ~pid)
  in
  (match t.sink with
  | None -> ()
  | Some s -> s.sink_close ~stops:(Array.copy stops));
  let entries =
    Array.init t.nprocs (fun pid -> Array.of_list (List.rev !(t.logs.(pid))))
  in
  if Obs.enabled () then
    Array.iteri
      (fun pid es ->
        Obs.add
          (Obs.counter (Printf.sprintf "trace.pid%d.entries" pid))
          (Array.length es);
        Obs.add
          (Obs.counter (Printf.sprintf "trace.pid%d.log_bytes" pid))
          (String.length (Marshal.to_string es [])))
      entries;
  {
    Log.nprocs = t.nprocs;
    entries;
    stops;
    tier = t.tier;
    ckpts = Array.of_list (List.rev t.ckpts);
    base = Array.make t.nprocs 0;
  }

let run_logged ?sched ?max_steps ?(extra_hooks = Runtime.Hooks.nil)
    ?sink ?tier ?ckpt_every eb =
  let logger = create ?sink ?tier ?ckpt_every eb in
  let hooks = Runtime.Hooks.both (factory logger) extra_hooks in
  let m =
    Runtime.Machine.create ?sched ?max_steps ~hooks
      eb.Analysis.Eblock.prog
  in
  let halt = Runtime.Machine.run m in
  (halt, finish logger, m)
