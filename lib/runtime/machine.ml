module P = Lang.Prog
module B = Lang.Bytecode

type engine = Interp_engine | Vm_engine

type halt =
  | Finished
  | Deadlock of (int * string) list
  | Fault of { pid : int; sid : int option; msg : string }
  | Breakpoint of { pid : int; sid : int }
  | Out_of_fuel

type proc_state = Ready | Blocked of string | Done

type wait = Wsem of int | Wsend of int | Wrecv of int | Wjoin of int

type block_reason =
  | Bsem of int
  | Bsend of int  (** bounded channel full; no send event emitted yet *)
  | Bsend_ack of int  (** synchronous send emitted, awaiting receive *)
  | Brecv of int
  | Bjoin of int

type pending =
  | Pnone
  | Precv_value of { value : int; src : Event.eref; sender : int option }
      (** a synchronous sender handed us this value while we were
          blocked in recv *)
  | Punblock of { by : Event.eref }
      (** our synchronous send was received; emit the unblock event *)

type pstatus = Sready | Sblocked of block_reason | Sdone

(* Both engines hang their state off the same process record: a frame is
   either an interpreter frame or a VM frame that embeds one. The embed
   shares the [Value.t array] slot representation, so instrumentation
   reads and driver-side operand evaluation are engine-blind. *)
type eframe = Fi of Interp.frame | Fv of Vm.frame

let iframe = function Fi f -> f | Fv vf -> vf.Vm.fr

type veng = { vst : Vm.pstate; vhost : Vm.host }

type proc = {
  pid : int;
  root_fid : int;
  mutable frames : eframe list;  (** top first; empty iff done *)
  mutable status : pstatus;
  mutable pending : pending;
  seq : int ref;  (** shared with the VM host for inline bumping *)
  mutable started : bool;
  spawn_ref : Event.eref option;
  mutable exit_info : (Value.t option * Event.eref) option;
  mutable p_waited : bool;  (** blocked at least once on the current P *)
  mutable veng : veng option;  (** VM register arena + host, Vm engine only *)
}

type sem_state = {
  tokens : Event.eref option Queue.t;
  sem_waiters : int Queue.t;
}

type chan_state = {
  cap : int option;
  buf : (int * Event.eref) Queue.t;
  sync_senders : (int * int * Event.eref) Queue.t;
      (** synchronous senders that emitted their send and wait:
          (pid, value, send event) *)
  mutable full_senders : int list;  (** bounded-channel senders, FIFO *)
  mutable recv_waiters : int list;  (** blocked receivers, FIFO *)
}

type t = {
  prog : P.t;
  plan : B.prog option;  (** [Some] iff the Vm engine is selected *)
  instrumented : bool;
  shared : Value.t array;
  sems : sem_state array;
  chans : chan_state array;
  mutable procs : proc array;
  sched : Sched.t;
  mutable hooks : Hooks.t;
  max_steps : int;
  steps : int ref;  (** shared with the VM hosts for inline ticking *)
  out : Buffer.t;
  mutable halted : halt option;
  mutable current_sid : int;  (** for fault attribution; -1 = none *)
  mutable runnable_cache : int list;
      (** ascending pids; valid iff [runnable_valid]. Local statements
          never change a process status, so the hot loop reuses this
          list and only sync ops / spawns / exits rebuild it. *)
  mutable runnable_valid : bool;
  breakpoints : Analysis.Bitset.t option;  (** statement ids that halt the run *)
}

let sched_dirty t = t.runnable_valid <- false

let prog t = t.prog

let init_shared (p : P.t) =
  Array.map
    (function
      | P.Ginit_int n -> Value.Vint n
      | P.Ginit_arr len -> Value.Varr (Array.make len 0))
    p.global_inits

let proc t pid =
  if pid < 0 || pid >= Array.length t.procs then
    raise (Interp.Fault (Printf.sprintf "no process with id %d" pid))
  else t.procs.(pid)

let emit t (pr : proc) ev =
  let r = { Event.epid = pr.pid; eseq = !(pr.seq) } in
  incr pr.seq;
  t.hooks.Hooks.on_event ~pid:pr.pid ~seq:r.eseq ev;
  (match (t.breakpoints, Event.sid_of ev) with
  | Some bps, Some sid when t.halted = None && Analysis.Bitset.mem bps sid ->
    t.halted <- Some (Breakpoint { pid = pr.pid; sid })
  | _ -> ());
  (match ev with
  | Event.E_stmt { kind = Event.K_print { value }; _ } ->
    Buffer.add_string t.out (Value.to_string value);
    Buffer.add_char t.out '\n'
  | _ -> ());
  r

(* Bare fast path: account for a VM-local statement event without
   materializing it — same seq bump and breakpoint check as [emit],
   minus the allocation and the hook call (the run is uninstrumented, or
   no observer reads local events). Every VM-local event carries its own
   sid, so the check is exactly [emit]'s. *)
let fast_account t (pr : proc) sid =
  incr pr.seq;
  match t.breakpoints with
  | Some bps when t.halted = None && Analysis.Bitset.mem bps sid ->
    t.halted <- Some (Breakpoint { pid = pr.pid; sid })
  | _ -> ()

(* Bare-run driver accounting: [emit]'s seq bump, breakpoint check and
   provenance ref without materializing the event. Driver sites switch
   on [t.instrumented] so an uninstrumented run never allocates event
   records, read lists or frame-bind lists on the sync path — the same
   contract the VM's [want] flag gives local statements. [sid] must be
   what [Event.sid_of] would have reported for the skipped event. *)
let bare_ref t (pr : proc) sid =
  let r = { Event.epid = pr.pid; eseq = !(pr.seq) } in
  incr pr.seq;
  (match (t.breakpoints, sid) with
  | Some bps, Some sid when t.halted = None && Analysis.Bitset.mem bps sid ->
    t.halted <- Some (Breakpoint { pid = pr.pid; sid })
  | _ -> ());
  r

let attach_vm t (pr : proc) =
  match t.plan with
  | None -> ()
  | Some _ ->
    let vst = Vm.make_pstate () in
    let stop = ref false in
    (* [emit] only ever halts the machine at a breakpoint, so without
       breakpoints the host never has to re-check [t.halted] and the
       bare fast path reduces to the inline seq bump in the VM. Local
       statement events are built only for an observer that reads them;
       loop events flow to every observer, since loop e-block prelogs
       and postlogs hang on them. *)
    let want = t.instrumented && t.hooks.Hooks.locals
    and loops = t.instrumented in
    let vhost =
      match t.breakpoints with
      | None ->
        {
          Vm.want;
          loops;
          emit = (fun ev -> ignore (emit t pr ev));
          fast_event = (fun _sid -> incr pr.seq);
          fast_print =
            (fun _sid n ->
              incr pr.seq;
              Buffer.add_string t.out (string_of_int n);
              Buffer.add_char t.out '\n');
          has_bp = false;
          seq = pr.seq;
          steps = t.steps;
          stop;
          glb = t.shared;
          unbound = ignore;
        }
      | Some _ ->
        let check () =
          match t.halted with Some _ -> stop := true | None -> ()
        in
        {
          Vm.want;
          loops;
          emit =
            (fun ev ->
              ignore (emit t pr ev);
              check ());
          fast_event =
            (fun sid ->
              fast_account t pr sid;
              check ());
          fast_print =
            (fun sid n ->
              fast_account t pr sid;
              check ();
              Buffer.add_string t.out (string_of_int n);
              Buffer.add_char t.out '\n');
          has_bp = true;
          seq = pr.seq;
          steps = t.steps;
          stop;
          glb = t.shared;
          unbound = ignore;
        }
    in
    pr.veng <- Some { vst; vhost }

let make_eframe t (pr : proc) ~fid ~args ~ret_lhs ~call_sid =
  match (t.plan, pr.veng) with
  | Some bp, Some v ->
    Fv (Vm.make_frame bp t.prog v.vst ~fid ~args ~ret_lhs ~call_sid)
  | _ -> Fi (Interp.make_frame t.prog ~fid ~args ~ret_lhs ~call_sid)

let new_proc t ~fid ~args ~spawn_ref =
  let pid = Array.length t.procs in
  let pr =
    {
      pid;
      root_fid = fid;
      frames = [];
      status = Sready;
      pending = Pnone;
      seq = ref 0;
      started = false;
      spawn_ref;
      exit_info = None;
      p_waited = false;
      veng = None;
    }
  in
  attach_vm t pr;
  pr.frames <- [ make_eframe t pr ~fid ~args ~ret_lhs:None ~call_sid:None ];
  t.procs <- Array.append t.procs [| pr |];
  sched_dirty t;
  pid

let create ?(engine = Vm_engine) ?(sched = Sched.default)
    ?(max_steps = 1_000_000) ?hooks ?(breakpoints = []) (p : P.t) =
  let sems =
    Array.map
      (fun (s : P.sem) ->
        let tokens = Queue.create () in
        for _ = 1 to s.sem_init do
          Queue.add None tokens
        done;
        { tokens; sem_waiters = Queue.create () })
      p.sems
  in
  let chans =
    Array.map
      (fun (c : P.chan) ->
        {
          cap = c.ch_cap;
          buf = Queue.create ();
          sync_senders = Queue.create ();
          full_senders = [];
          recv_waiters = [];
        })
      p.chans
  in
  let t =
    {
      prog = p;
      plan =
        (match engine with
        | Vm_engine -> Some (B.plan p)
        | Interp_engine -> None);
      instrumented = Option.is_some hooks;
      shared = init_shared p;
      sems;
      chans;
      procs = [||];
      sched = Sched.create sched;
      hooks =
        Hooks.nil
          {
            Hooks.read_var = (fun ~pid:_ _ -> Value.Vundef);
            now = (fun () -> 0);
            seq_of = (fun ~pid:_ -> 0);
          };
      max_steps;
      steps = ref 0;
      out = Buffer.create 256;
      halted = None;
      current_sid = -1;
      runnable_cache = [];
      runnable_valid = false;
      breakpoints =
        (match breakpoints with
        | [] -> None
        | sids ->
          let b = Analysis.Bitset.create (Array.length p.stmts) in
          List.iter (Analysis.Bitset.add b) sids;
          Some b);
    }
  in
  let port =
    {
      Hooks.read_var =
        (fun ~pid (v : P.var) ->
          match v.vscope with
          | P.Global slot -> t.shared.(slot)
          | P.Local slot -> (
            match t.procs.(pid).frames with
            | [] -> Value.Vundef
            | top :: _ -> (iframe top).Interp.slots.(slot)));
      now = (fun () -> !(t.steps));
      seq_of = (fun ~pid -> !(t.procs.(pid).seq));
    }
  in
  t.hooks <- (match hooks with Some h -> h port | None -> Hooks.nil port);
  let pid0 = new_proc t ~fid:p.main_fid ~args:[] ~spawn_ref:None in
  assert (pid0 = 0);
  t

let ctx t (pr : proc) =
  match pr.frames with
  | [] -> invalid_arg "Machine.ctx: no frame"
  | top :: _ ->
    {
      Interp.prog = t.prog;
      read_global = (fun slot -> t.shared.(slot));
      write_global = (fun slot v -> t.shared.(slot) <- v);
      frame = iframe top;
    }

(* The driver completed the statement at the top frame's head. *)
let consume_top (pr : proc) =
  match pr.frames with
  | Fi f :: _ -> Interp.consume_work f
  | Fv vf :: _ -> Vm.consume vf
  | [] -> assert false

(* Return the top VM frame's register window to the process arena.
   Registers hold only transient expression temporaries — the logged
   state all lives in slots — so release order vs. event emission is
   immaterial; it only has to precede pushing another frame. *)
let release_top (pr : proc) =
  match (pr.frames, pr.veng) with
  | Fv vf :: _, Some v -> Vm.release v.vst vf
  | _ -> ()

let wake t pid =
  let pr = t.procs.(pid) in
  match pr.status with
  | Sblocked _ ->
    pr.status <- Sready;
    sched_dirty t
  | Sready | Sdone -> ()

let wake_joiners t child_pid =
  Array.iter
    (fun pr ->
      match pr.status with
      | Sblocked (Bjoin q) when q = child_pid ->
        pr.status <- Sready;
        sched_dirty t
      | _ -> ())
    t.procs

(* Process termination: emit the exit event while the root frame is
   still in place (so observers can snapshot its locals for the
   postlog), then record the result and wake joiners. *)
let finish_proc t (pr : proc) result =
  let r =
    if t.instrumented then
      emit t pr (Event.E_proc_exit { fid = pr.root_fid; result })
    else bare_ref t pr None
  in
  pr.exit_info <- Some (result, r);
  pr.frames <- [];
  pr.status <- Sdone;
  sched_dirty t;
  wake_joiners t pr.pid

(* Deliver [ret] into the caller frame after a pop: emit the
   call-return event attributed to the call statement. *)
let deliver_return t (pr : proc) ~callee ~call_sid ~ret_lhs ret =
  match call_sid with
  | None -> assert false
  | Some sid ->
    if t.instrumented then begin
      let write =
        match ret_lhs with
        | None -> None
        | Some l ->
          let c = ctx t pr in
          let value = match ret with Some v -> v | None -> Value.Vundef in
          let _idx_reads, w = Interp.write_lhs c l value in
          Some w
      in
      ignore
        (emit t pr
           (Event.E_stmt
              {
                sid;
                reads = [];
                write;
                kind = Event.K_call_return { callee; ret };
              }))
    end
    else begin
      (* the lhs write is semantics, not instrumentation *)
      (match ret_lhs with
      | None -> ()
      | Some l ->
        let c = ctx t pr in
        let value = match ret with Some v -> v | None -> Value.Vundef in
        ignore (Interp.write_lhs c l value));
      ignore (bare_ref t pr (Some sid))
    end

(* Pop the top frame with return value [ret] (already evaluated). The
   root frame emits only E_proc_exit (the process boundary is the
   e-block boundary); nested frames emit E_leave before popping so the
   postlog can still read their locals. *)
let pop_frame t (pr : proc) ret =
  match pr.frames with
  | [] -> assert false
  | [ _root ] ->
    release_top pr;
    finish_proc t pr ret
  | top :: rest ->
    let f = iframe top in
    if t.instrumented then
      ignore
        (emit t pr
           (Event.E_leave { fid = f.Interp.ffid; call_sid = f.Interp.call_sid; ret }))
    else ignore (bare_ref t pr f.Interp.call_sid);
    release_top pr;
    pr.frames <- rest;
    deliver_return t pr ~callee:f.Interp.ffid ~call_sid:f.Interp.call_sid
      ~ret_lhs:f.Interp.ret_lhs ret

let spawn_proc t ~fid ~args ~spawn_ref =
  new_proc t ~fid ~args ~spawn_ref:(Some spawn_ref)

let block t pr reason =
  pr.status <- Sblocked reason;
  sched_dirty t

(* ------------------------------------------------------------------ *)
(* Driver-handled statements.                                           *)
(* ------------------------------------------------------------------ *)

let exec_driver t (pr : proc) (s : P.stmt) =
  let c = ctx t pr in
  match s.desc with
  | P.Sreturn e ->
    let ret, reads =
      match e with
      | None -> (None, [])
      | Some e ->
        let n, reads = Interp.eval_int c e in
        (Some (Value.Vint n), reads)
    in
    if t.instrumented then
      ignore
        (emit t pr
           (Event.E_stmt
              { sid = s.sid; reads; write = None; kind = Event.K_return { value = ret } }))
    else ignore (bare_ref t pr (Some s.sid));
    (* returning unwinds any loops still executing in this frame: close
       their loop e-blocks (§5.4), then drop the work and leave *)
    (match pr.frames with
    | top :: _ ->
      let f = iframe top in
      List.iter
        (fun sid ->
          if t.instrumented then
            ignore (emit t pr (Event.E_loop_exit { sid; writes = None }))
          else ignore (bare_ref t pr (Some sid)))
        f.Interp.active_loops;
      f.Interp.active_loops <- [];
      f.Interp.work <- []
    | [] -> assert false);
    pop_frame t pr ret
  | P.Scall (lhs, call) ->
    let args_rev, reads_rev =
      List.fold_left
        (fun (args, reads) a ->
          let n, r = Interp.eval_int c a in
          (Value.Vint n :: args, List.rev_append r reads))
        ([], []) call.cargs
    in
    let args = List.rev args_rev and reads = List.rev reads_rev in
    if t.instrumented then
      ignore
        (emit t pr
           (Event.E_stmt
              {
                sid = s.sid;
                reads;
                write = None;
                kind = Event.K_call { callee = call.callee; args };
              }))
    else ignore (bare_ref t pr (Some s.sid));
    consume_top pr;
    let frame =
      make_eframe t pr ~fid:call.callee ~args ~ret_lhs:lhs
        ~call_sid:(Some s.sid)
    in
    pr.frames <- frame :: pr.frames;
    if t.instrumented then
      ignore
        (emit t pr
           (Event.E_enter
              {
                fid = call.callee;
                call_sid = Some s.sid;
                binds = Interp.binds_of_frame t.prog (iframe frame);
              }))
    else ignore (bare_ref t pr (Some s.sid))
  | P.Sspawn (lhs, call) ->
    let args_rev, reads_rev =
      List.fold_left
        (fun (args, reads) a ->
          let n, r = Interp.eval_int c a in
          (Value.Vint n :: args, List.rev_append r reads))
        ([], []) call.cargs
    in
    let args = List.rev args_rev and reads = List.rev reads_rev in
    let child = Array.length t.procs in
    let r =
      if t.instrumented then begin
        let write =
          match lhs with
          | None -> None
          | Some l ->
            let _idx, w = Interp.write_lhs c l (Value.Vint child) in
            Some w
        in
        emit t pr
          (Event.E_stmt
             {
               sid = s.sid;
               reads;
               write;
               kind = Event.K_spawn { child; callee = call.callee; args };
             })
      end
      else begin
        (match lhs with
        | None -> ()
        | Some l -> ignore (Interp.write_lhs c l (Value.Vint child)));
        bare_ref t pr (Some s.sid)
      end
    in
    let child' = spawn_proc t ~fid:call.callee ~args ~spawn_ref:r in
    assert (child' = child);
    consume_top pr
  | P.Sjoin (lhs, e) ->
    let q, reads = Interp.eval_int c e in
    let target = proc t q in
    if target.pid = pr.pid then raise (Interp.Fault "process joining itself");
    (match target.exit_info with
    | Some (result, exit_ref) ->
      if t.instrumented then begin
        let write =
          match lhs with
          | None -> None
          | Some l ->
            let value = match result with Some v -> v | None -> Value.Vundef in
            let _idx, w = Interp.write_lhs c l value in
            Some w
        in
        ignore
          (emit t pr
             (Event.E_stmt
                {
                  sid = s.sid;
                  reads;
                  write;
                  kind = Event.K_join { child = q; result; child_exit = exit_ref };
                }))
      end
      else begin
        (match lhs with
        | None -> ()
        | Some l ->
          let value = match result with Some v -> v | None -> Value.Vundef in
          ignore (Interp.write_lhs c l value));
        ignore (bare_ref t pr (Some s.sid))
      end;
      consume_top pr
    | None -> block t pr (Bjoin q))
  | P.Sp sem ->
    let st = t.sems.(sem.sem_id) in
    if Queue.is_empty st.tokens then begin
      if not (Queue.fold (fun acc p -> acc || p = pr.pid) false st.sem_waiters)
      then Queue.add pr.pid st.sem_waiters;
      pr.p_waited <- true;
      block t pr (Bsem sem.sem_id)
    end
    else begin
      let src = Queue.take st.tokens in
      if t.instrumented then
        ignore
          (emit t pr
             (Event.E_stmt
                {
                  sid = s.sid;
                  reads = [];
                  write = None;
                  kind =
                    Event.K_p { sem = sem.sem_id; src; was_blocked = pr.p_waited };
                }))
      else ignore (bare_ref t pr (Some s.sid));
      pr.p_waited <- false;
      consume_top pr
    end
  | P.Sv sem ->
    let st = t.sems.(sem.sem_id) in
    let r =
      if t.instrumented then
        emit t pr
          (Event.E_stmt
             { sid = s.sid; reads = []; write = None; kind = Event.K_v { sem = sem.sem_id } })
      else bare_ref t pr (Some s.sid)
    in
    Queue.add (Some r) st.tokens;
    if not (Queue.is_empty st.sem_waiters) then wake t (Queue.take st.sem_waiters);
    consume_top pr
  | P.Ssend (ch, e) -> (
    let st = t.chans.(ch.ch_id) in
    match pr.pending with
    | Punblock { by } ->
      pr.pending <- Pnone;
      if t.instrumented then
        ignore
          (emit t pr
             (Event.E_stmt
                {
                  sid = s.sid;
                  reads = [];
                  write = None;
                  kind = Event.K_send_unblocked { chan = ch.ch_id; by };
                }))
      else ignore (bare_ref t pr (Some s.sid));
      consume_top pr
    | Precv_value _ -> assert false
    | Pnone -> (
      match st.cap with
      | Some 0 -> (
        (* synchronous: emit send, then block awaiting the receive *)
        let value, reads = Interp.eval_int c e in
        let r =
          if t.instrumented then
            emit t pr
              (Event.E_stmt
                 {
                   sid = s.sid;
                   reads;
                   write = None;
                   kind = Event.K_send { chan = ch.ch_id; value };
                 })
          else bare_ref t pr (Some s.sid)
        in
        match st.recv_waiters with
        | rcv :: rest ->
          st.recv_waiters <- rest;
          let receiver = t.procs.(rcv) in
          receiver.pending <-
            Precv_value { value; src = r; sender = Some pr.pid };
          wake t rcv;
          block t pr (Bsend_ack ch.ch_id)
        | [] ->
          Queue.add (pr.pid, value, r) st.sync_senders;
          block t pr (Bsend_ack ch.ch_id))
      | Some cap when Queue.length st.buf >= cap ->
        if not (List.mem pr.pid st.full_senders) then
          st.full_senders <- st.full_senders @ [ pr.pid ];
        block t pr (Bsend ch.ch_id)
      | Some _ | None ->
        let value, reads = Interp.eval_int c e in
        let r =
          if t.instrumented then
            emit t pr
              (Event.E_stmt
                 {
                   sid = s.sid;
                   reads;
                   write = None;
                   kind = Event.K_send { chan = ch.ch_id; value };
                 })
          else bare_ref t pr (Some s.sid)
        in
        Queue.add (value, r) st.buf;
        (match st.recv_waiters with
        | rcv :: rest ->
          st.recv_waiters <- rest;
          wake t rcv
        | [] -> ());
        consume_top pr))
  | P.Srecv (ch, lhs) -> (
    let st = t.chans.(ch.ch_id) in
    let complete value src sender =
      let idx_reads, w = Interp.write_lhs c lhs (Value.Vint value) in
      let r =
        if t.instrumented then
          emit t pr
            (Event.E_stmt
               {
                 sid = s.sid;
                 reads = idx_reads;
                 write = Some w;
                 kind = Event.K_recv { chan = ch.ch_id; value; src };
               })
        else bare_ref t pr (Some s.sid)
      in
      consume_top pr;
      match sender with
      | Some sp ->
        let sender = t.procs.(sp) in
        sender.pending <- Punblock { by = r };
        wake t sp
      | None -> ()
    in
    match pr.pending with
    | Precv_value { value; src; sender } ->
      pr.pending <- Pnone;
      complete value src sender
    | Punblock _ -> assert false
    | Pnone ->
      if not (Queue.is_empty st.buf) then begin
        let value, src = Queue.take st.buf in
        complete value src None;
        (* a slot freed: let a blocked bounded-channel sender retry *)
        match st.full_senders with
        | sp :: rest ->
          st.full_senders <- rest;
          wake t sp
        | [] -> ()
      end
      else if not (Queue.is_empty st.sync_senders) then begin
        let sp, value, src = Queue.take st.sync_senders in
        complete value src (Some sp)
      end
      else begin
        if not (List.mem pr.pid st.recv_waiters) then
          st.recv_waiters <- st.recv_waiters @ [ pr.pid ];
        block t pr (Brecv ch.ch_id)
      end)
  | P.Swhile _ -> (
    (* interpreter engine only: the VM compiles loops to jumps *)
    match pr.frames with
    | Fi top :: _ -> (
      match top.Interp.work with
      | Interp.Wstmt _ :: _ ->
        (* loop e-block boundary: enter before the first condition test *)
        ignore (emit t pr (Event.E_loop_enter { sid = s.sid }));
        Interp.loop_entry top s
      | Interp.Wloop _ :: _ ->
        let ev, continued = Interp.loop_test c s in
        ignore (emit t pr (Event.E_stmt ev));
        if not continued then
          ignore (emit t pr (Event.E_loop_exit { sid = s.sid; writes = None }))
      | [] -> assert false)
    | Fv _ :: _ | [] -> assert false)
  | P.Sassign _ | P.Sif _ | P.Sprint _ | P.Sassert _ -> assert false

(* ------------------------------------------------------------------ *)
(* Stepping and the run loop.                                           *)
(* ------------------------------------------------------------------ *)

let step_proc t (pr : proc) =
  if not pr.started then begin
    pr.started <- true;
    if t.instrumented then begin
      let binds =
        match pr.frames with
        | top :: _ -> Interp.binds_of_frame t.prog (iframe top)
        | [] -> []
      in
      ignore
        (emit t pr
           (Event.E_proc_start { fid = pr.root_fid; binds; spawn = pr.spawn_ref }))
    end
    else ignore (bare_ref t pr None)
  end
  else
    match pr.frames with
    | [] -> assert false
    | Fi top :: _ -> (
      let c = ctx t pr in
      (* remember the sid for fault attribution *)
      (match top.Interp.work with
      | Interp.Wstmt s :: _ | Interp.Wloop s :: _ -> t.current_sid <- s.P.sid
      | [] -> t.current_sid <- -1);
      match Interp.step_local c with
      | Interp.Event ev ->
        ignore (emit t pr (Event.E_stmt ev));
        (match ev.kind with
        | Event.K_assert { ok = false } ->
          raise (Interp.Fault "assertion failed")
        | _ -> ())
      | Interp.Frame_done -> pop_frame t pr None
      | Interp.Driver s -> exec_driver t pr s)
    | Fv _ :: _ ->
      (* started VM processes go through the burst path in [step_one] *)
      assert false

let runnable t =
  if t.runnable_valid then t.runnable_cache
  else begin
    let l =
      Array.to_list t.procs
      |> List.filter_map (fun pr ->
             match pr.status with
             | Sready -> Some pr.pid
             | Sblocked _ | Sdone -> None)
    in
    t.runnable_cache <- l;
    t.runnable_valid <- true;
    l
  end

let describe_block = function
  | Bsem s -> Printf.sprintf "P on semaphore %d" s
  | Bsend c -> Printf.sprintf "send on full channel %d" c
  | Bsend_ack c -> Printf.sprintf "synchronous send on channel %d awaiting receive" c
  | Brecv c -> Printf.sprintf "recv on empty channel %d" c
  | Bjoin p -> Printf.sprintf "join of process %d" p

let step_one t =
  match t.halted with
  | Some _ -> false
  | None -> (
    match runnable t with
    | [] ->
      let blocked =
        Array.to_list t.procs
        |> List.filter_map (fun pr ->
               match pr.status with
               | Sblocked r -> Some (pr.pid, describe_block r)
               | Sready | Sdone -> None)
      in
      t.halted <- Some (if blocked = [] then Finished else Deadlock blocked);
      false
    | pids ->
      if !(t.steps) >= t.max_steps then begin
        t.halted <- Some Out_of_fuel;
        false
      end
      else begin
        let pid = Sched.pick t.sched ~runnable:pids in
        let pr = t.procs.(pid) in
        (match pr.frames with
        | Fv vf :: _ when pr.started -> (
          (* Burst path: local statements never change process statuses,
             so the scheduler's remaining quantum can run inside the VM
             dispatch loop without re-entering this loop. Ticks bump
             [t.steps]; afterwards the extra picks are committed, which
             is observationally identical to single-stepping. *)
          let v = match pr.veng with Some v -> v | None -> assert false in
          let promised = Sched.burst t.sched ~runnable:pids ~pid in
          let budget =
            (* careful: [promised] may be [max_int] (sole runnable) *)
            min (if promised < max_int then promised + 1 else max_int)
              (t.max_steps - !(t.steps))
          in
          let before = !(t.steps) in
          try
            let res = Vm.run vf v.vst v.vhost ~budget in
            Sched.commit t.sched ~pid (!(t.steps) - before - 1);
            match res with
            | Vm.Stepped -> ()
            | Vm.Frame_done -> pop_frame t pr None
            | Vm.Driver s -> exec_driver t pr s
          with Interp.Fault msg ->
            (* the machine halts here, so the uncommitted extra picks
               are never observed *)
            let s = Vm.current_sid vf in
            t.halted <-
              Some (Fault { pid; sid = (if s < 0 then None else Some s); msg }))
        | _ -> (
          incr t.steps;
          try step_proc t pr
          with Interp.Fault msg ->
            let sid = if t.current_sid < 0 then None else Some t.current_sid in
            t.halted <- Some (Fault { pid; sid; msg })));
        true
      end)

(* Execution-phase step counter (a no-op until [Obs.enable]): bumped
   once per [run], not per step, so the hot loop stays untouched. *)
let c_steps = Obs.counter "runtime.machine_steps"

let run t =
  let before = !(t.steps) in
  while step_one t do
    ()
  done;
  Obs.add c_steps (!(t.steps) - before);
  match t.halted with Some h -> h | None -> assert false

let status t = t.halted

let output t = Buffer.contents t.out

let nsteps t = !(t.steps)

let nprocs t = Array.length t.procs

let proc_state t pid =
  match t.procs.(pid).status with
  | Sready -> Ready
  | Sblocked r -> Blocked (describe_block r)
  | Sdone -> Done

let blocked_wait t pid =
  match t.procs.(pid).status with
  | Sready | Sdone -> None
  | Sblocked r ->
    Some
      (match r with
      | Bsem s -> Wsem s
      | Bsend c | Bsend_ack c -> Wsend c
      | Brecv c -> Wrecv c
      | Bjoin p -> Wjoin p)

let proc_seq t pid = !(t.procs.(pid).seq)

let proc_root t pid = t.procs.(pid).root_fid

let read_global t slot = t.shared.(slot)
