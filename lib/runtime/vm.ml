(* The execution-phase bytecode VM (DESIGN §15).

   One [step] executes expression instructions until a statement
   terminator completes — exactly one scheduler step per source
   statement. Driver-handled statements ([Isync]) are returned to the
   machine unconsumed so a blocking sync op can be retried, and falling
   off the end of the code reports [Frame_done].

   Frame state is split struct-of-arrays style: every frame of a
   process draws its register window from the process's one growable
   int arena ([pstate.regs]), while variable slots stay in the shared
   [Value.t array] representation of [Interp.frame] — that is what the
   instrumentation port reads, so prelogs/postlogs snapshot the live
   slots with no intermediate copy, and what the driver's operand
   evaluation ([Interp.eval_int] / [Interp.write_lhs]) works on.

   Two execution modes share the dispatch loop. When one of the
   machine's observers reads local statement events, [host.want] is
   true and the VM materializes the exact event the source statement
   defines (reads in short-circuit evaluation order, the
   read-modify-write element read, the evaluator's fault messages);
   the AST interpreter kept as a test oracle checks this. Otherwise
   the VM skips event and read-list allocation entirely: a completed
   statement costs one inline seq bump, or one [fast_event] callback
   (seq bump + breakpoint check) when breakpoints exist. That bare path
   serves both uninstrumented runs and observers that decline local
   events, such as the logger; [host.loops] still hands such observers
   the loop enter/exit events that loop e-blocks hang on.

   The dispatch loop is a toplevel recursive function, not a nest of
   per-[step] closures: a step on the bare path allocates nothing. *)

module P = Lang.Prog
module B = Lang.Bytecode

let fault fmt = Format.kasprintf (fun msg -> raise (Interp.Fault msg)) fmt

type pstate = {
  mutable regs : int array;  (* register arena, one window per live frame *)
  mutable rtop : int;
  mutable acc : Event.rw list;  (* reads of the current step, reversed *)
  mutable budget : int;  (* statements left in the current burst *)
}

let make_pstate () = { regs = Array.make 16 0; rtop = 0; acc = []; budget = 0 }

type frame = {
  fr : Interp.frame;
      (* slots / ffid / ret_lhs / call_sid / active_loops live here;
         control is the pc *)
  code : B.instr array;
  sids : int array;
  rbase : int;
  mutable pc : int;
}

type host = {
  want : bool;  (* materialize local statement events? *)
  loops : bool;  (* emit loop enter/exit events (instrumented machine)? *)
  emit : Event.t -> unit;
  fast_event : int -> unit;  (* sid: seq bump + breakpoint check *)
  fast_print : int -> int -> unit;  (* sid, value: bump + output line *)
  has_bp : bool;
      (* breakpoints exist: bare statements must go through [fast_event]
         for the halt check instead of the inline seq bump *)
  seq : int ref;  (* the process's event-seq counter, shared *)
  steps : int ref;  (* the machine's step clock, shared *)
  stop : bool ref;  (* the machine halted mid-burst (breakpoint) *)
  glb : Value.t array;  (* the machine's shared store *)
  unbound : int -> unit;
      (* a global cell is about to fault: the host may raise its own
         error first (a replay's overlay store, for a slot no prelog
         covered) *)
}

type result = Stepped | Driver of P.stmt | Frame_done

(* ------------------------------------------------------------------ *)
(* Frames.                                                              *)
(* ------------------------------------------------------------------ *)

(* Fresh slots: scalars undefined, local arrays zero-filled, parameters
   bound to [args] (arity checked). *)
let make_frame (bp : B.prog) (p : P.t) (st : pstate) ~fid ~args ~ret_lhs
    ~call_sid =
  let f = p.funcs.(fid) in
  let slots = Array.make f.nslots Value.Vundef in
  List.iter
    (fun (v : P.var) ->
      match (v.vscope, v.vty) with
      | P.Local slot, P.Tarr n -> slots.(slot) <- Value.Varr (Array.make n 0)
      | P.Local _, P.Tint -> ()
      | P.Global _, _ -> assert false)
    f.locals;
  (try
     List.iter2
       (fun (v : P.var) arg ->
         match v.vscope with
         | P.Local slot -> slots.(slot) <- arg
         | P.Global _ -> assert false)
       f.params args
   with Invalid_argument _ -> fault "arity mismatch calling %s" f.fname);
  let fr =
    { Interp.ffid = fid; slots; active_loops = []; ret_lhs; call_sid }
  in
  let fc = bp.B.by_fid.(fid) in
  let need = st.rtop + fc.B.nregs in
  if need > Array.length st.regs then begin
    let regs = Array.make (max need (2 * Array.length st.regs)) 0 in
    Array.blit st.regs 0 regs 0 st.rtop;
    st.regs <- regs
  end;
  let vf =
    { fr; code = fc.B.code; sids = fc.B.code_sids; rbase = st.rtop; pc = 0 }
  in
  st.rtop <- st.rtop + fc.B.nregs;
  vf

let release (st : pstate) (vf : frame) = st.rtop <- vf.rbase

(* Compiler-produced indices (pc, register numbers, slot numbers, jump
   targets) are valid by construction — the dispatch loop reads them
   unchecked. User-computed array subscripts keep their explicit bounds
   test. *)
let ( .!() ) : int array -> int -> int = Array.unsafe_get

let ( .!()<- ) : int array -> int -> int -> unit = Array.unsafe_set

(* Jumps are layout, not statements: chase them whenever the pc comes
   to rest so every resting pc is a real instruction (and [current_sid]
   attributes a fault to the statement that raised it). *)
let rec chase (code : B.instr array) pc =
  match Array.unsafe_get code pc with B.Ijmp t -> chase code t | _ -> pc

let current_sid (vf : frame) = vf.sids.(vf.pc)

(* Rest the pc at [pc], past any jumps. *)
let rest (vf : frame) pc = vf.pc <- chase vf.code pc

(* The driver completed the sync statement resting at the pc. *)
let consume (vf : frame) = rest vf (vf.pc + 1)

(* ------------------------------------------------------------------ *)
(* The dispatch loop.                                                   *)
(* ------------------------------------------------------------------ *)

let add_read (st : pstate) (v : P.var) n =
  st.acc <- { Event.var = v; value = Value.Vint n } :: st.acc

let load_scalar (st : pstate) want (v : P.var) cell =
  match cell with
  | Value.Vint n ->
    if want then add_read st v n;
    n
  | Value.Vundef -> fault "read of uninitialised variable '%s'" v.vname
  | Value.Varr _ -> fault "array '%s' used as a scalar" v.vname

let load_elem (st : pstate) want (v : P.var) cell idx =
  match cell with
  | Value.Varr a ->
    if idx < 0 || idx >= Array.length a then
      fault "index %d out of bounds for '%s' (length %d)" idx v.vname
        (Array.length a)
    else begin
      let n = a.!(idx) in
      if want then add_read st v n;
      n
    end
  | Value.Vint _ | Value.Vundef -> fault "'%s' is not an array" v.vname

(* an element write is a read-modify-write of the whole array under the
   array-as-scalar abstraction: record the old-element read *)
let store_elem (st : pstate) want (v : P.var) cell idx n =
  match cell with
  | Value.Varr a ->
    if idx < 0 || idx >= Array.length a then
      fault "index %d out of bounds for '%s' (length %d)" idx v.vname
        (Array.length a)
    else begin
      if want then add_read st v a.!(idx);
      a.!(idx) <- n;
      a
    end
  | Value.Vint _ | Value.Vundef -> fault "'%s' is not an array" v.vname

(* The same on a global cell, but a faulting access asks the host
   first; the accesses that succeed take the same path as above. *)
let gload_scalar (st : pstate) (h : host) want (v : P.var) slot cell =
  match cell with
  | Value.Vint n ->
    if want then add_read st v n;
    n
  | Value.Vundef | Value.Varr _ ->
    h.unbound slot;
    load_scalar st want v cell

let gload_elem (st : pstate) (h : host) want (v : P.var) slot cell idx =
  match cell with
  | Value.Varr a when idx >= 0 && idx < Array.length a ->
    let n = a.!(idx) in
    if want then add_read st v n;
    n
  | _ ->
    h.unbound slot;
    load_elem st want v cell idx

let gstore_elem (st : pstate) (h : host) want (v : P.var) slot cell idx n =
  match cell with
  | Value.Varr a when idx >= 0 && idx < Array.length a ->
    if want then add_read st v a.!(idx);
    a.!(idx) <- n;
    a
  | _ ->
    h.unbound slot;
    store_elem st want v cell idx n

let assign_event (h : host) (st : pstate) sid (v : P.var) n =
  h.emit
    (Event.E_stmt
       {
         sid;
         reads = List.rev st.acc;
         write = Some { Event.var = v; value = Value.Vint n };
         kind = Event.K_assign;
       })

(* Bare-path per-statement accounting: just the seq bump, unless
   breakpoints force the full check through the machine's callback. *)
let[@inline] account (h : host) sid =
  if h.has_bp then h.fast_event sid else incr h.seq

let pred_event (h : host) (st : pstate) sid b =
  h.emit
    (Event.E_stmt
       { sid; reads = List.rev st.acc; write = None; kind = Event.K_pred b })

let[@inline] cmp_eval (c : B.cmp) (x : int) (y : int) =
  match c with
  | B.Clt -> x < y
  | B.Cle -> x <= y
  | B.Cgt -> x > y
  | B.Cge -> x >= y
  | B.Ceq -> x = y
  | B.Cne -> x <> y

let rec exec (vf : frame) (st : pstate) (h : host) (code : B.instr array) regs
    base slots glb want pc : result =
  match Array.unsafe_get code pc with
  | B.Iconst (r, n) ->
    regs.!(base + r) <- n;
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Iload (r, v, slot) ->
    regs.!(base + r) <- load_scalar st want v (Array.unsafe_get slots slot);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Igload (r, v, slot) ->
    regs.!(base + r) <- gload_scalar st h want v slot (Array.unsafe_get glb slot);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ilelem (r, v, slot) ->
    regs.!(base + r) <-
      load_elem st want v (Array.unsafe_get slots slot) regs.!(base + r);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Igelem (r, v, slot) ->
    regs.!(base + r) <-
      gload_elem st h want v slot (Array.unsafe_get glb slot) regs.!(base + r);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ineg r ->
    regs.!(base + r) <- -regs.!(base + r);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Inot r ->
    regs.!(base + r) <- (if regs.!(base + r) = 0 then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Iadd r ->
    regs.!(base + r) <- regs.!(base + r) + regs.!(base + r + 1);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Isub r ->
    regs.!(base + r) <- regs.!(base + r) - regs.!(base + r + 1);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Imul r ->
    regs.!(base + r) <- regs.!(base + r) * regs.!(base + r + 1);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Idiv r ->
    let y = regs.!(base + r + 1) in
    if y = 0 then fault "division by zero"
    else begin
      regs.!(base + r) <- regs.!(base + r) / y;
      exec vf st h code regs base slots glb want (pc + 1)
    end
  | B.Imod r ->
    let y = regs.!(base + r + 1) in
    if y = 0 then fault "modulo by zero"
    else begin
      regs.!(base + r) <- regs.!(base + r) mod y;
      exec vf st h code regs base slots glb want (pc + 1)
    end
  | B.Ilt r ->
    regs.!(base + r) <- (if regs.!(base + r) < regs.!(base + r + 1) then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ile r ->
    regs.!(base + r) <-
      (if regs.!(base + r) <= regs.!(base + r + 1) then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Igt r ->
    regs.!(base + r) <- (if regs.!(base + r) > regs.!(base + r + 1) then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ige r ->
    regs.!(base + r) <-
      (if regs.!(base + r) >= regs.!(base + r + 1) then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ieq r ->
    regs.!(base + r) <- (if regs.!(base + r) = regs.!(base + r + 1) then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ine r ->
    regs.!(base + r) <-
      (if regs.!(base + r) <> regs.!(base + r + 1) then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  (* ---- fused binops: literal right operand ---- *)
  | B.Iaddk (r, k) ->
    regs.!(base + r) <- regs.!(base + r) + k;
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Isubk (r, k) ->
    regs.!(base + r) <- regs.!(base + r) - k;
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Imulk (r, k) ->
    regs.!(base + r) <- regs.!(base + r) * k;
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Idivk (r, k) ->
    if k = 0 then fault "division by zero"
    else begin
      regs.!(base + r) <- regs.!(base + r) / k;
      exec vf st h code regs base slots glb want (pc + 1)
    end
  | B.Imodk (r, k) ->
    if k = 0 then fault "modulo by zero"
    else begin
      regs.!(base + r) <- regs.!(base + r) mod k;
      exec vf st h code regs base slots glb want (pc + 1)
    end
  | B.Icmpk (c, r, k) ->
    regs.!(base + r) <- (if cmp_eval c regs.!(base + r) k then 1 else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  (* ---- fused binops: local-scalar right operand ---- *)
  | B.Iaddv (r, v, slot) ->
    regs.!(base + r) <-
      regs.!(base + r) + load_scalar st want v (Array.unsafe_get slots slot);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Isubv (r, v, slot) ->
    regs.!(base + r) <-
      regs.!(base + r) - load_scalar st want v (Array.unsafe_get slots slot);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Imulv (r, v, slot) ->
    regs.!(base + r) <-
      regs.!(base + r) * load_scalar st want v (Array.unsafe_get slots slot);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Idivv (r, v, slot) ->
    let y = load_scalar st want v (Array.unsafe_get slots slot) in
    if y = 0 then fault "division by zero"
    else begin
      regs.!(base + r) <- regs.!(base + r) / y;
      exec vf st h code regs base slots glb want (pc + 1)
    end
  | B.Imodv (r, v, slot) ->
    let y = load_scalar st want v (Array.unsafe_get slots slot) in
    if y = 0 then fault "modulo by zero"
    else begin
      regs.!(base + r) <- regs.!(base + r) mod y;
      exec vf st h code regs base slots glb want (pc + 1)
    end
  | B.Icmpv (c, r, v, slot) ->
    regs.!(base + r) <-
      (if
         cmp_eval c regs.!(base + r)
           (load_scalar st want v (Array.unsafe_get slots slot))
       then 1
       else 0);
    exec vf st h code regs base slots glb want (pc + 1)
  | B.Ijmp t -> exec vf st h code regs base slots glb want t
  | B.Ijz (r, t) ->
    exec vf st h code regs base slots glb want
      (if regs.!(base + r) = 0 then t else pc + 1)
  | B.Ijnz (r, t) ->
    exec vf st h code regs base slots glb want
      (if regs.!(base + r) <> 0 then t else pc + 1)
  (* ---- statement terminators ---- *)
  | B.Iassign_l (r, v, slot) ->
    let n = regs.!(base + r) in
    Array.unsafe_set slots slot (Value.Vint n);
    if want then assign_event h st vf.sids.!(pc) v n
    else account h vf.sids.!(pc);
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iassign_g (r, v, slot) ->
    let n = regs.!(base + r) in
    Array.unsafe_set glb slot (Value.Vint n);
    if want then assign_event h st vf.sids.!(pc) v n
    else account h vf.sids.!(pc);
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iassign_le (r, v, slot) ->
    let n = regs.!(base + r) and idx = regs.!(base + r + 1) in
    ignore (store_elem st want v (Array.unsafe_get slots slot) idx n);
    if want then assign_event h st vf.sids.!(pc) v n
    else account h vf.sids.!(pc);
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iassign_ge (r, v, slot) ->
    let n = regs.!(base + r) and idx = regs.!(base + r + 1) in
    let a = gstore_elem st h want v slot (Array.unsafe_get glb slot) idx n in
    (* write back through the store like [Interp.write_lhs] does, so
       overlay stores observe the mutation *)
    Array.unsafe_set glb slot (Value.Varr a);
    if want then assign_event h st vf.sids.!(pc) v n
    else account h vf.sids.!(pc);
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iinc_l (v, dslot, w, sslot, k) ->
    let n = load_scalar st want w (Array.unsafe_get slots sslot) + k in
    Array.unsafe_set slots dslot (Value.Vint n);
    if want then assign_event h st vf.sids.!(pc) v n
    else account h vf.sids.!(pc);
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iinc_g (v, dslot, w, sslot, k) ->
    let n = gload_scalar st h want w sslot (Array.unsafe_get glb sslot) + k in
    Array.unsafe_set glb dslot (Value.Vint n);
    if want then assign_event h st vf.sids.!(pc) v n
    else account h vf.sids.!(pc);
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Ipred (r, ftarget) ->
    let b = regs.!(base + r) <> 0 in
    let sid = vf.sids.!(pc) in
    if want then pred_event h st sid b else account h sid;
    next_stmt vf st h code regs base slots glb want
      (chase code (if b then pc + 1 else ftarget))
  | B.Iloop_head ->
    let sid = vf.sids.!(pc) in
    if h.loops then h.emit (Event.E_loop_enter { sid }) else account h sid;
    vf.fr.Interp.active_loops <- sid :: vf.fr.Interp.active_loops;
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iloop_test (r, exit_target) ->
    let b = regs.!(base + r) <> 0 in
    let sid = vf.sids.!(pc) in
    if want then pred_event h st sid b else account h sid;
    if b then next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
    else begin
      vf.fr.Interp.active_loops <-
        (match vf.fr.Interp.active_loops with
        | l :: ls when l = sid -> ls
        | ls -> ls);
      if h.loops then h.emit (Event.E_loop_exit { sid; writes = None })
      else account h sid;
      next_stmt vf st h code regs base slots glb want (chase code exit_target)
    end
  | B.Iloop_test_vk (c, v, slot, k, exit_target) ->
    let b = cmp_eval c (load_scalar st want v (Array.unsafe_get slots slot)) k in
    let sid = vf.sids.!(pc) in
    if want then pred_event h st sid b else account h sid;
    if b then next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
    else begin
      vf.fr.Interp.active_loops <-
        (match vf.fr.Interp.active_loops with
        | l :: ls when l = sid -> ls
        | ls -> ls);
      if h.loops then h.emit (Event.E_loop_exit { sid; writes = None })
      else account h sid;
      next_stmt vf st h code regs base slots glb want (chase code exit_target)
    end
  | B.Iprint r ->
    let n = regs.!(base + r) in
    let sid = vf.sids.!(pc) in
    if want then
      h.emit
        (Event.E_stmt
           {
             sid;
             reads = List.rev st.acc;
             write = None;
             kind = Event.K_print { value = Value.Vint n };
           })
    else h.fast_print sid n;
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Iassert r ->
    let ok = regs.!(base + r) <> 0 in
    let sid = vf.sids.!(pc) in
    if want then
      h.emit
        (Event.E_stmt
           {
             sid;
             reads = List.rev st.acc;
             write = None;
             kind = Event.K_assert { ok };
           })
    else account h sid;
    if not ok then raise (Interp.Fault "assertion failed");
    next_stmt vf st h code regs base slots glb want (chase code (pc + 1))
  | B.Isync s -> Driver s
  | B.Iret_void -> Frame_done

(* One statement finished and the pc rests at [pc]. Keep going within
   the same burst — same process, registers and code still hot — unless
   the budget ran out or the machine halted (breakpoint) mid-burst. The
   next statement starts exactly like a machine-loop entry would start
   it: clock tick, fresh read accumulator. *)
and next_stmt vf st h code regs base slots glb want pc : result =
  vf.pc <- pc;
  if st.budget <= 1 || !(h.stop) then Stepped
  else begin
    st.budget <- st.budget - 1;
    incr h.steps;
    if want then st.acc <- [];
    exec vf st h code regs base slots glb want pc
  end

(* Execute up to [budget] (>= 1) statements of the top frame. Every
   statement — including a final [Isync]/[Iret_void] hand-off — costs
   one [tick]; the machine translates ticks into scheduler-pick commits
   ([Sched.commit]), so a burst is observationally the same as [budget]
   single steps of the same process. *)
let run (vf : frame) (st : pstate) (h : host) ~budget : result =
  st.budget <- budget;
  incr h.steps;
  if h.want then st.acc <- [];
  exec vf st h vf.code st.regs vf.rbase vf.fr.Interp.slots h.glb h.want vf.pc
