module P = Lang.Prog
module E = Runtime.Event
module V = Runtime.Value
module I = Runtime.Interp
module A = Ast_step
module L = Trace.Log

exception Replay_mismatch of string

let mismatch fmt = Format.kasprintf (fun m -> raise (Replay_mismatch m)) fmt

type outcome = {
  events : (int * E.t) list;
  steps : int;
  output : string;
  fault : string option;
  overrun : bool;
  postlog_mismatches : string list;
}

type state = {
  eb : Analysis.Eblock.t;
  prog : P.t;
  pid : int;
  entries : L.entry array;
      (* the process's log from whole-log index [base] on: a paged
         window holds only the pages the interval touches *)
  base : int;
  mutable cursor : int;  (* into [entries] *)
  mutable seq : int;
  mutable frames : A.frame list;
  overlay : V.t option array;  (* by global slot *)
  mutable events_rev : (int * E.t) list;
  on_event : seq:int -> E.t -> unit;
  mutable out : Buffer.t option;  (* made at the first [print] *)
  mutable ctx : I.ctx;
      (* the interpreter's view of the top frame: its overlay accessors
         are made once per replay, the record again only when the top
         frame changes *)
  mutable steps : int;
  root_is_proc : bool;
  root_loop : int option;  (* sid when replaying a loop e-block interval *)
  stop_seq : int;  (* reality's edge: no event at or past this seq happened *)
  iv : L.interval;
  mutable finished : bool;
  mutable validate : bool;  (* false during what-if replays *)
  root_frame : I.frame option ref;  (* kept for the postlog check *)
}

let emit st ev =
  let seq = st.seq in
  st.seq <- seq + 1;
  st.events_rev <- (seq, ev) :: st.events_rev;
  st.on_event ~seq ev;
  match ev with
  | E.E_stmt { kind = E.K_print { value }; _ } ->
    let out =
      match st.out with
      | Some b -> b
      | None ->
        let b = Buffer.create 64 in
        st.out <- Some b;
        b
    in
    Buffer.add_string out (V.to_string value);
    Buffer.add_char out '\n'
  | _ -> ()

let global_slot (st : state) vid =
  match st.prog.vars.(vid).vscope with
  | P.Global slot -> Some slot
  | P.Local _ -> None

(* Apply logged (vid, value) pairs: globals to the overlay, locals to
   the given frame (used for prelog application). *)
let apply_vals st ?frame vals =
  List.iter
    (fun (vid, v) ->
      match global_slot st vid with
      | Some slot -> st.overlay.(slot) <- Some (V.copy v)
      | None -> (
        match frame with
        | None -> ()
        | Some (f : I.frame) -> (
          match st.prog.vars.(vid).vscope with
          | P.Local slot -> f.slots.(slot) <- V.copy v
          | P.Global _ -> assert false)))
    vals

let apply_globals st vals =
  List.iter
    (fun (vid, v) ->
      match global_slot st vid with
      | Some slot -> st.overlay.(slot) <- Some (V.copy v)
      | None -> ())
    vals

(* The overlay as the interpreter reads and writes the shared store. *)
let overlay_ctx (prog : P.t) overlay frame =
  {
    I.prog;
    read_global =
      (fun slot ->
        match overlay.(slot) with
        | Some v -> v
        | None ->
          mismatch
            "replay read of shared '%s' not covered by any prelog \
             (analysis gap or data race)"
            prog.globals.(slot).P.vname);
    write_global = (fun slot v -> overlay.(slot) <- Some v);
    frame;
  }

let ctx st =
  match st.frames with
  | [] -> invalid_arg "Emulator.ctx"
  | top :: _ ->
    if st.ctx.I.frame != top.A.fr then st.ctx <- { st.ctx with I.frame = top.A.fr };
    st.ctx

(* If the entry at the cursor is a sync-unit prelog for [point], apply
   it to the overlay and advance. *)
let maybe_sync_prelog st =
  if st.cursor < Array.length st.entries then
    match st.entries.(st.cursor) with
    | L.Sync_prelog { vals; _ } ->
      apply_globals st vals;
      st.cursor <- st.cursor + 1
    | L.Prelog _ | L.Postlog _ | L.Sync _ -> ()

let expect_sync st ~sid =
  if st.validate then begin
    if st.cursor >= Array.length st.entries then
      mismatch "log exhausted but replay reached sync statement s%d" sid;
    match st.entries.(st.cursor) with
    | L.Sync { sid = Some sid'; seq; data = L.S_kind kind; _ } ->
      if sid' <> sid then
        mismatch "replay at s%d but log records sync at s%d" sid sid';
      if seq <> st.seq then
        mismatch "replay at seq %d but sync record for s%d has seq %d" st.seq
          sid seq;
      st.cursor <- st.cursor + 1;
      kind
    | e ->
      mismatch "replay reached sync s%d but log entry is %s" sid
        (Format.asprintf "%a" (L.pp_entry st.prog) e)
  end
  else begin
    (* what-if mode: control flow may have diverged; best effort is to
       seek the next sync record (applying shared snapshots on the way)
       and use its payload if it still matches this statement *)
    let rec seek () =
      if st.cursor >= Array.length st.entries then
        raise
          (I.Fault
             (Printf.sprintf
                "what-if execution diverged: no sync record left for s%d" sid))
      else
        match st.entries.(st.cursor) with
        | L.Sync { sid = Some sid'; data = L.S_kind kind; _ } ->
          st.cursor <- st.cursor + 1;
          if sid' = sid then kind
          else
            raise
              (I.Fault
                 (Printf.sprintf
                    "what-if execution diverged: reached s%d but the log's next \
                     synchronization was at s%d"
                    sid sid'))
        | L.Sync_prelog { vals; _ } ->
          apply_globals st vals;
          st.cursor <- st.cursor + 1;
          seek ()
        | L.Sync _ | L.Prelog _ | L.Postlog _ ->
          st.cursor <- st.cursor + 1;
          seek ()
    in
    seek ()
  end

(* Skip a nested e-block: cursor is at its Prelog; jump past the
   matching Postlog, returning it. *)
let skip_nested st ~(block : L.block) =
  (* described only on the error paths: most nested blocks skip cleanly *)
  let describe () = Format.asprintf "%a" L.pp_block block in
  (match st.entries.(st.cursor) with
  | L.Prelog { block = b; _ } when b = block -> ()
  | e ->
    mismatch "expected nested prelog of %s, found %s" (describe ())
      (Format.asprintf "%a" (L.pp_entry st.prog) e));
  let depth = ref 0 in
  let result = ref None in
  while !result = None do
    (if st.cursor >= Array.length st.entries then
       mismatch "nested e-block %s has no matching postlog" (describe ()));
    (match st.entries.(st.cursor) with
    | L.Prelog _ -> incr depth
    | L.Postlog { vals; ret; seq_at; via_return; _ } ->
      decr depth;
      if !depth = 0 then result := Some (vals, ret, seq_at, via_return)
    | L.Sync _ | L.Sync_prelog _ -> ());
    st.cursor <- st.cursor + 1
  done;
  Option.get !result

let is_sync_chan (_st : state) (ch : P.chan) = ch.ch_cap = Some 0

(* Close the interval root frame. *)
let finish_root st ret =
  let top = (List.hd st.frames).A.fr in
  st.root_frame := Some top;
  if st.root_is_proc then begin
    (* the machine emitted E_proc_exit; consume its sync record. In
       what-if mode the cursor may sit before entries of nested blocks
       that were re-executed rather than skipped: seek, and synthesize
       the exit if the divergent run simply outlived the log. *)
    let rec find_exit () =
      if st.cursor >= Array.length st.entries then None
      else
        match st.entries.(st.cursor) with
        | L.Sync { data = L.S_proc_exit { fid; result }; seq; _ } ->
          st.cursor <- st.cursor + 1;
          Some (fid, result, seq)
        | e ->
          if st.validate then
            mismatch "expected proc-exit sync record, found %s"
              (Format.asprintf "%a" (L.pp_entry st.prog) e)
          else begin
            st.cursor <- st.cursor + 1;
            find_exit ()
          end
    in
    match find_exit () with
    | Some (fid, result, seq) ->
      if st.validate && seq <> st.seq then
        mismatch "proc-exit seq %d but replay at %d" seq st.seq;
      let result = if st.validate then result else ret in
      emit st (E.E_proc_exit { fid; result })
    | None ->
      emit st (E.E_proc_exit { fid = top.I.ffid; result = ret })
  end
  else
    emit st (E.E_leave { fid = top.I.ffid; call_sid = top.I.call_sid; ret });
  st.frames <- [];
  st.finished <- true

(* Pop a nested (inlined) frame and deliver the return value. *)
let pop_nested st ret =
  match st.frames with
  | [] -> assert false
  | top :: rest ->
    let top = top.A.fr in
    emit st (E.E_leave { fid = top.I.ffid; call_sid = top.I.call_sid; ret });
    st.frames <- rest;
    let sid = match top.I.call_sid with Some s -> s | None -> assert false in
    let write =
      match top.I.ret_lhs with
      | None -> None
      | Some l ->
        let c = ctx st in
        let value = match ret with Some v -> v | None -> V.Vundef in
        let _idx, w = I.write_lhs c l value in
        Some w
    in
    emit st
      (E.E_stmt
         {
           sid;
           reads = [];
           write;
           kind = E.K_call_return { callee = top.I.ffid; ret };
         });
    maybe_sync_prelog st

let pop_frame st ret =
  match st.frames with
  | [] -> assert false
  | [ _root ] -> finish_root st ret
  | _ :: _ -> pop_nested st ret

let eval_args c (call : P.call) =
  let args_rev, reads_rev =
    List.fold_left
      (fun (args, reads) a ->
        let n, r = I.eval_int c a in
        (V.Vint n :: args, List.rev_append r reads))
      ([], []) call.cargs
  in
  (List.rev args_rev, List.rev reads_rev)

let kind_name (k : E.kind) =
  Format.asprintf "%a" E.pp
    (E.E_stmt { sid = -1; reads = []; write = None; kind = k })

let consume st = A.consume_work (List.hd st.frames)

let exec_driver st (s : P.stmt) =
  let c = ctx st in
  match s.desc with
  | P.Sreturn e ->
    let ret, reads =
      match e with
      | None -> (None, [])
      | Some e ->
        let n, reads = I.eval_int c e in
        (Some (V.Vint n), reads)
    in
    emit st
      (E.E_stmt
         { sid = s.sid; reads; write = None; kind = E.K_return { value = ret } });
    if st.root_loop <> None then begin
      (match st.frames with
      | top :: _ -> st.root_frame := Some top.A.fr
      | [] -> ());
      st.finished <- true
    end
    else begin
      (match st.frames with
      | top :: _ ->
        List.iter
          (fun sid -> emit st (E.E_loop_exit { sid; writes = None }))
          top.A.fr.I.active_loops;
        top.A.fr.I.active_loops <- [];
        top.A.work <- []
      | [] -> assert false);
      pop_frame st ret
    end
  | P.Scall (lhs, call) ->
    let args, reads = eval_args c call in
    emit st
      (E.E_stmt
         {
           sid = s.sid;
           reads;
           write = None;
           kind = E.K_call { callee = call.callee; args };
         });
    consume st;
    if st.validate && st.eb.Analysis.Eblock.is_eblock.(call.callee) then begin
      (* §5.2: skip the nested e-block via its postlog *)
      let vals, ret, post_seq, _via = skip_nested st ~block:(L.Bfunc call.callee) in
      apply_globals st vals;
      st.seq <- post_seq;
      let write =
        match lhs with
        | None -> None
        | Some l ->
          let value = match ret with Some v -> v | None -> V.Vundef in
          let _idx, w = I.write_lhs c l value in
          Some w
      in
      emit st
        (E.E_stmt
           {
             sid = s.sid;
             reads = [];
             write;
             kind = E.K_call_return { callee = call.callee; ret };
           });
      maybe_sync_prelog st
    end
    else begin
      let frame =
        A.make_frame st.prog ~fid:call.callee ~args ~ret_lhs:lhs
          ~call_sid:(Some s.sid)
      in
      st.frames <- frame :: st.frames;
      emit st
        (E.E_enter
           {
             fid = call.callee;
             call_sid = Some s.sid;
             binds = I.binds_of_frame st.prog frame.A.fr;
           });
      maybe_sync_prelog st
    end
  | P.Sspawn (lhs, call) -> (
    let args, reads = eval_args c call in
    match expect_sync st ~sid:s.sid with
    | E.K_spawn { child; callee; _ } ->
      if callee <> call.callee then
        mismatch "spawn callee mismatch at s%d" s.sid;
      let write =
        match lhs with
        | None -> None
        | Some l ->
          let _idx, w = I.write_lhs c l (V.Vint child) in
          Some w
      in
      emit st
        (E.E_stmt
           {
             sid = s.sid;
             reads;
             write;
             kind = E.K_spawn { child; callee; args };
           });
      maybe_sync_prelog st;
      consume st
    | k -> mismatch "expected spawn record at s%d, got %s" s.sid (kind_name k))
  | P.Sjoin (lhs, e) -> (
    let _q, reads = I.eval_int c e in
    match expect_sync st ~sid:s.sid with
    | E.K_join { child; result; child_exit } ->
      let write =
        match lhs with
        | None -> None
        | Some l ->
          let value = match result with Some v -> v | None -> V.Vundef in
          let _idx, w = I.write_lhs c l value in
          Some w
      in
      emit st
        (E.E_stmt
           {
             sid = s.sid;
             reads;
             write;
             kind = E.K_join { child; result; child_exit };
           });
      maybe_sync_prelog st;
      consume st
    | k -> mismatch "expected join record at s%d, got %s" s.sid (kind_name k))
  | P.Sp sem -> (
    match expect_sync st ~sid:s.sid with
    | E.K_p { sem = sem'; src; was_blocked } ->
      if sem' <> sem.sem_id then mismatch "semaphore mismatch at s%d" s.sid;
      emit st
        (E.E_stmt
           {
             sid = s.sid;
             reads = [];
             write = None;
             kind = E.K_p { sem = sem'; src; was_blocked };
           });
      maybe_sync_prelog st;
      consume st
    | k -> mismatch "expected P record at s%d, got %s" s.sid (kind_name k))
  | P.Sv sem -> (
    match expect_sync st ~sid:s.sid with
    | E.K_v { sem = sem' } ->
      if sem' <> sem.sem_id then mismatch "semaphore mismatch at s%d" s.sid;
      emit st
        (E.E_stmt
           {
             sid = s.sid;
             reads = [];
             write = None;
             kind = E.K_v { sem = sem' };
           });
      maybe_sync_prelog st;
      consume st
    | k -> mismatch "expected V record at s%d, got %s" s.sid (kind_name k))
  | P.Ssend (ch, e) -> (
    let value, reads = I.eval_int c e in
    match expect_sync st ~sid:s.sid with
    | E.K_send { chan; value = logged } ->
      if chan <> ch.ch_id then mismatch "channel mismatch at s%d" s.sid;
      if st.validate && logged <> value then
        mismatch
          "send payload at s%d re-evaluates to %d but log recorded %d \
           (data race?)"
          s.sid value logged;
      emit st
        (E.E_stmt
           { sid = s.sid; reads; write = None; kind = E.K_send { chan; value } });
      maybe_sync_prelog st;
      if is_sync_chan st ch then begin
        match expect_sync st ~sid:s.sid with
        | E.K_send_unblocked { chan = chan'; by } ->
          emit st
            (E.E_stmt
               {
                 sid = s.sid;
                 reads = [];
                 write = None;
                 kind = E.K_send_unblocked { chan = chan'; by };
               });
          maybe_sync_prelog st
        | k ->
          mismatch "expected send-unblocked record at s%d, got %s" s.sid
            (kind_name k)
      end;
      consume st
    | k -> mismatch "expected send record at s%d, got %s" s.sid (kind_name k))
  | P.Srecv (ch, lhs) -> (
    match expect_sync st ~sid:s.sid with
    | E.K_recv { chan; value; src } ->
      if chan <> ch.ch_id then mismatch "channel mismatch at s%d" s.sid;
      let idx_reads, w = I.write_lhs c lhs (V.Vint value) in
      emit st
        (E.E_stmt
           {
             sid = s.sid;
             reads = idx_reads;
             write = Some w;
             kind = E.K_recv { chan; value; src };
           });
      maybe_sync_prelog st;
      consume st
    | k -> mismatch "expected recv record at s%d, got %s" s.sid (kind_name k))
  | P.Swhile _ -> (
    let top = List.hd st.frames in
    match top.A.work with
    | A.Wstmt _ :: _
      when st.validate
           && Analysis.Eblock.is_loop_block st.eb ~sid:s.sid
           && st.root_loop <> Some s.sid -> (
      (* §5.4: skip the nested loop e-block via its postlog; the
         collapsed execution becomes a loop node carrying its writes *)
      emit st (E.E_loop_enter { sid = s.sid });
      let vals, _ret, post_seq, via_return =
        skip_nested st ~block:(L.Bloop s.sid)
      in
      (* loop writes land in the enclosing frame and the shared store *)
      apply_vals st ~frame:top.A.fr vals;
      st.seq <- post_seq;
      let writes =
        List.map (fun (vid, v) -> (st.prog.vars.(vid), v)) vals
      in
      emit st (E.E_loop_exit { sid = s.sid; writes = Some writes });
      consume st;
      maybe_sync_prelog st;
      match via_return with
      | None -> ()
      | Some ret ->
        (* the skipped loop ended because a return unwound it: finish
           unwinding exactly as the machine did — close the remaining
           active loops, then leave the frame *)
        if st.root_loop <> None then st.finished <- true
        else begin
          List.iter
            (fun sid -> emit st (E.E_loop_exit { sid; writes = None }))
            top.A.fr.I.active_loops;
          top.A.fr.I.active_loops <- [];
          top.A.work <- [];
          pop_frame st ret
        end)
    | A.Wstmt _ :: _ ->
      emit st (E.E_loop_enter { sid = s.sid });
      A.loop_entry top s
    | A.Wloop _ :: _ ->
      let ev, continued = A.loop_test c top s in
      emit st (E.E_stmt ev);
      if not continued then
        if st.root_loop = Some s.sid then begin
          st.root_frame := Some top.A.fr;
          st.finished <- true
        end
        else
          emit st (E.E_loop_exit { sid = s.sid; writes = None })
    | [] -> assert false)
  | P.Sassign _ | P.Sif _ | P.Sprint _ | P.Sassert _ -> assert false


let step st =
  (* stop exactly where the original process stopped: the machine halted
     (fault elsewhere, breakpoint, deadlock) or preempted it mid-block;
     events past this point never happened *)
  if st.seq >= st.stop_seq then st.finished <- true
  else begin
  st.steps <- st.steps + 1;
  match st.frames with
  | [] ->
    st.finished <- true
  | top :: _ -> (
    let c = ctx st in
    match A.step_local c top with
    | A.Event ev ->
      emit st (E.E_stmt ev);
      (match ev.kind with
      | E.K_assert { ok = false } -> raise (I.Fault "assertion failed")
      | _ -> ())
    | A.Frame_done -> pop_frame st None
    | A.Driver s -> exec_driver st s)
  end

(* Validate the regenerated final state against the recorded postlog.
   Locals are process-private and must match exactly. Shared variables
   are only compared when the whole run had a single process: in a
   parallel run another process may legitimately write a shared variable
   between this block's last access and its postlog snapshot, so the
   logged value can be newer than anything this replay can know. *)
let check_postlog st ~single_process =
  match st.iv.L.iv_postlog with
  | None -> []
  | Some idx -> (
    match st.entries.(idx - st.base) with
    | L.Postlog { vals; _ } ->
      List.filter_map
        (fun (vid, logged) ->
          let v = st.prog.vars.(vid) in
          let current =
            match v.P.vscope with
            | P.Global slot -> if single_process then st.overlay.(slot) else None
            | P.Local slot -> (
              match !(st.root_frame) with
              | Some f when v.P.vfid = f.I.ffid -> Some f.I.slots.(slot)
              | Some _ | None -> None)
          in
          match current with
          | None -> None
          | Some V.Vundef ->
            (* a may-write the replay never performed: the postlog shows
               the value from before the block (possible only for loop
               e-blocks, whose frame predates the block) — nothing to
               compare against *)
            None
          | Some cur ->
            if V.equal cur logged then None
            else
              Some
                (Printf.sprintf "%s: replayed %s, logged %s" v.P.vname
                   (V.to_string cur) (V.to_string logged)))
        vals
    | _ -> [])

(* Every interval emulation: demand and pool replays, retries and
   what-if runs alike. *)
let c_replays = Obs.counter "ppd.emulator.replays"

(* Chaos site: when armed with kind [budget] the Nth replay's step
   budget collapses to zero, which exercises the same overrun path a
   genuinely runaway replay would take. *)
let f_replay = Fault.site "ppd.emulator.replay"

let replay ?(on_event = fun ~seq:_ _ -> ()) ?(max_steps = 1_000_000)
    ?(overrides = []) ?(validate = true) eb (log : L.t)
    ~(interval : L.interval) =
  Obs.incr c_replays;
  let max_steps =
    match Fault.fire f_replay with Some _ -> 0 | None -> max_steps
  in
  (* the arg is built only for a recorded span: disabled, Obs allocates
     nothing *)
  let arg =
    if Obs.enabled () then
      Some (Printf.sprintf "p%d#%d" interval.L.iv_pid interval.L.iv_id)
    else None
  in
  Obs.with_span ~cat:"replay" ?arg "replay" @@ fun () ->
  let prog = eb.Analysis.Eblock.prog in
  let pid = interval.L.iv_pid in
  let entries = log.L.entries.(pid) in
  let base = log.L.base.(pid) in
  let entry idx = entries.(idx - base) in
  let prelog_vals, caller_sid, block =
    match entry interval.L.iv_prelog with
    | L.Prelog { vals; caller_sid; block; _ } -> (vals, caller_sid, block)
    | _ -> invalid_arg "Emulator.replay: interval prelog index is not a prelog"
  in
  let fid, root_loop =
    match block with
    | L.Bfunc fid -> (fid, None)
    | L.Bloop sid -> (prog.stmt_fid.(sid), Some sid)
  in
  (* a process-root interval is preceded by its proc-start sync record *)
  let root_is_proc, spawn_ref =
    if interval.L.iv_prelog > 0 then
      match entry (interval.L.iv_prelog - 1) with
      | L.Sync { data = L.S_proc_start { spawn; _ }; _ } -> (true, spawn)
      | _ -> (false, None)
    else (false, None)
  in
  (* parameters start undefined; the prelog supplies the ones that can
     be read (upward-exposed) *)
  let dummy_args = List.map (fun _ -> V.Vundef) prog.funcs.(fid).params in
  let frame =
    A.make_frame prog ~fid ~args:dummy_args ~ret_lhs:None ~call_sid:caller_sid
  in
  let overlay = Array.make (Array.length prog.globals) None in
  let st =
    {
      eb;
      prog;
      pid;
      entries;
      base;
      cursor = interval.L.iv_prelog + 1 - base;
      seq = interval.L.iv_seq_start;
      frames = [ frame ];
      overlay;
      events_rev = [];
      on_event;
      out = None;
      ctx = overlay_ctx prog overlay frame.A.fr;
      steps = 0;
      root_is_proc;
      root_loop;
      stop_seq =
        (if pid < Array.length log.L.stops then log.L.stops.(pid) else max_int);
      iv = interval;
      finished = false;
      validate = true;
      root_frame = ref None;
    }
  in
  (* What-if replays re-execute nested e-blocks instead of consuming
     their logs, so any shared variable can be read — seed the overlay
     with the full restored store at the interval's start (§5.7:
     restoration, then modification, then re-start). *)
  if not validate then begin
    let snap =
      Ppd.Restore.shared_at prog log
        ~step:
          (match entry interval.L.iv_prelog with
          | L.Prelog { step_at; _ } -> step_at
          | _ -> 0)
    in
    Array.iteri
      (fun slot v -> st.overlay.(slot) <- Some (V.copy v))
      snap.Ppd.Restore.globals
  end;
  (match root_loop with
  | None -> ()
  | Some sid ->
    (* a loop interval replays just the loop: its region re-executes
       from the first condition test (the enter event lives in the
       parent interval) *)
    let stmt = prog.stmts.(sid) in
    frame.A.work <- [ A.Wloop stmt ];
    frame.A.fr.I.active_loops <- [ sid ]);
  apply_vals st ~frame:frame.A.fr prelog_vals;
  (* what-if experiments (§5.7): the user may perturb the restored
     state before re-execution. Overridden values make the log's sync
     records potentially inconsistent with the new control flow, so
     validation is normally relaxed alongside. *)
  apply_vals st ~frame:frame.A.fr
    (List.map (fun ((v : P.var), value) -> (v.vid, value)) overrides);
  st.validate <- validate;
  (* re-emit the interval's opening event *)
  let binds = I.binds_of_frame prog frame.A.fr in
  (match root_loop with
  | Some _ -> () (* the E_loop_enter event belongs to the parent interval *)
  | None ->
    if root_is_proc then
      emit st (E.E_proc_start { fid; binds; spawn = spawn_ref })
    else emit st (E.E_enter { fid; call_sid = caller_sid; binds }));
  let fault = ref None in
  (try
     while (not st.finished) && st.steps < max_steps do
       step st
     done
   with
  | I.Fault msg -> fault := Some msg
  | Replay_mismatch msg when not validate ->
    fault := Some ("what-if divergence: " ^ msg));
  let overrun = (not st.finished) && !fault = None && st.steps >= max_steps in
  if overrun then fault := Some "replay step budget exhausted";
  let postlog_mismatches =
    if st.finished && st.validate then
      check_postlog st ~single_process:(log.L.nprocs = 1)
    else []
  in
  {
    events = List.rev st.events_rev;
    steps = st.steps;
    output = (match st.out with Some b -> Buffer.contents b | None -> "");
    fault = !fault;
    overrun;
    postlog_mismatches;
  }
