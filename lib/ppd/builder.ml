module P = Lang.Prog
module E = Runtime.Event
module V = Runtime.Value
module SP = Analysis.Static_pdg

(* A statement's static control parent, as assembly consumes it: the
   function entry, or the predicate statement whose latest executed
   instance governs it. *)
type ctrl = C_entry | C_pred of int

type program = {
  prog : P.t;
  ctrl : ctrl list array;  (* by sid *)
  stmt_label : string array;  (* by sid *)
  loop_label : string array;  (* by sid; "" for non-loops *)
  entry_label : string array;  (* by fid *)
  exit_label : string array;  (* by fid *)
  param_label : string array;  (* by vid; "" for non-parameters *)
  arg_label : string array;  (* by 1-based argument position *)
  external_label : string array;  (* by vid *)
}

let program (prog : P.t) =
  let pdgs = SP.build_program prog in
  let ctrl =
    Array.init (Array.length prog.P.stmts) (fun sid ->
        let fid = prog.P.stmt_fid.(sid) in
        let cfg = pdgs.SP.cfgs.(fid) in
        let cnode = cfg.Analysis.Cfg.node_of_sid.(sid) in
        if cnode < 0 then []
        else
          List.filter_map
            (fun (src, _label) ->
              match Analysis.Cfg.kind cfg src with
              | Analysis.Cfg.Entry -> Some C_entry
              | Analysis.Cfg.Stmt ps -> Some (C_pred ps.P.sid)
              | Analysis.Cfg.Exit -> None)
            (SP.control_parents pdgs.SP.pdgs.(fid) cnode))
  in
  let stmt_label = Array.map P.stmt_label prog.P.stmts in
  let loop_label =
    Array.mapi
      (fun sid (s : P.stmt) ->
        match s.desc with
        | P.Swhile _ -> "while " ^ stmt_label.(sid)
        | _ -> "")
      prog.P.stmts
  in
  let param_label = Array.make prog.P.nvars "" in
  let arity = ref 0 in
  Array.iter
    (fun (f : P.func) ->
      arity := max !arity (List.length f.params);
      List.iteri
        (fun i (v : P.var) ->
          param_label.(v.vid) <- Printf.sprintf "%%%d (%s)" (i + 1) v.vname)
        f.params)
    prog.P.funcs;
  {
    prog;
    ctrl;
    stmt_label;
    loop_label;
    entry_label = Array.map (fun (f : P.func) -> "ENTRY " ^ f.fname) prog.P.funcs;
    exit_label = Array.map (fun (f : P.func) -> "EXIT " ^ f.fname) prog.P.funcs;
    param_label;
    arg_label = Array.init (!arity + 1) (Printf.sprintf "%%%d");
    external_label =
      Array.map (fun (v : P.var) -> v.vname ^ " (external)") prog.P.vars;
  }

(* An int-keyed map (by vid, or by predicate sid) whose entries belong
   to the scope that wrote them: an entry is visible only while its
   writer is the current scope, and closing a scope restores what its
   writes replaced, so a recursive call cannot clobber its caller's
   entries. Scope ids are never reused, so entries left by a closed
   scope or an earlier interval are simply invisible. *)
type scoped = {
  sm_node : int array;  (* key -> node *)
  sm_scope : int array;  (* key -> id of the scope that wrote it *)
  mutable sm_undo : int array;  (* (key, node, scope) triples to restore *)
  mutable sm_top : int;
}

let scoped n =
  { sm_node = Array.make n (-1); sm_scope = Array.make n 0; sm_undo = [||]; sm_top = 0 }

let sm_find m ~scope key = if m.sm_scope.(key) = scope then m.sm_node.(key) else -1

let sm_set m ~scope key node =
  if m.sm_scope.(key) <> scope then begin
    if m.sm_top + 3 > Array.length m.sm_undo then begin
      let undo = Array.make (max 48 (2 * m.sm_top)) 0 in
      Array.blit m.sm_undo 0 undo 0 m.sm_top;
      m.sm_undo <- undo
    end;
    m.sm_undo.(m.sm_top) <- key;
    m.sm_undo.(m.sm_top + 1) <- m.sm_node.(key);
    m.sm_undo.(m.sm_top + 2) <- m.sm_scope.(key);
    m.sm_top <- m.sm_top + 3;
    m.sm_scope.(key) <- scope
  end;
  m.sm_node.(key) <- node

let sm_restore m ~mark =
  while m.sm_top > mark do
    m.sm_top <- m.sm_top - 3;
    let key = m.sm_undo.(m.sm_top) in
    m.sm_node.(key) <- m.sm_undo.(m.sm_top + 1);
    m.sm_scope.(key) <- m.sm_undo.(m.sm_top + 2)
  done

type scope = {
  sc_id : int;
  sc_owner : int option;  (* sub-graph node owning the members *)
  sc_entry : int;
  sc_locals_mark : int;  (* undo marks to restore on close *)
  sc_preds_mark : int;
  mutable sc_open_calls : (int * int) list;  (* call sid -> sub-graph node *)
  mutable sc_open_loops : (int * int) list;  (* loop sid -> loop node *)
  mutable sc_last_return : int option;
}

type t = {
  bp : program;
  g : Dyn_graph.t;
  locals : scoped;  (* vid -> defining node, per scope *)
  last_pred : scoped;  (* predicate sid -> latest instance, per scope *)
  glob_def : int array;  (* global vid -> defining node *)
  glob_stamp : int array;  (* global vid -> interval that defined it *)
  mutable clock : int;  (* the last id given to an interval or a scope *)
  (* the interval being assembled *)
  mutable interval : int;
  mutable pid : int;
  mutable scopes : scope list;
  mutable last : int;  (* -1: none *)
  mutable pending_rev : (E.eref * int) list;
  mutable popped_return : int;
      (* return node of the callee just left, for the %0 edge; -1: none *)
}

let create bp g =
  let nvars = bp.prog.P.nvars in
  {
    bp;
    g;
    locals = scoped nvars;
    last_pred = scoped (Array.length bp.prog.P.stmts);
    glob_def = Array.make nvars (-1);
    glob_stamp = Array.make nvars 0;
    clock = 0;
    interval = 0;
    pid = 0;
    scopes = [];
    last = -1;
    pending_rev = [];
    popped_return = -1;
  }

let fresh_id t =
  t.clock <- t.clock + 1;
  t.clock

let cur_scope t =
  match t.scopes with
  | [] -> invalid_arg "Builder: no open scope (stream must start with enter)"
  | s :: _ -> s

let flow_to t node =
  if t.last >= 0 then
    Dyn_graph.add_edge t.g ~src:t.last ~dst:node ~kind:Dyn_graph.Flow;
  t.last <- node

let find_def t sc (v : P.var) =
  if P.is_global v then
    if t.glob_stamp.(v.vid) = t.interval then t.glob_def.(v.vid) else -1
  else sm_find t.locals ~scope:sc.sc_id v.vid

let set_def t sc (v : P.var) node =
  if P.is_global v then begin
    t.glob_def.(v.vid) <- node;
    t.glob_stamp.(v.vid) <- t.interval
  end
  else sm_set t.locals ~scope:sc.sc_id v.vid node

(* Resolve the defining node of a read; creates a frontier node when
   the definition lies outside the fragment. *)
let resolve_read t (rw : E.rw) =
  let v = rw.var in
  let sc = cur_scope t in
  let def = find_def t sc v in
  if def >= 0 then def
  else
    let node =
      Dyn_graph.add_node t.g ?owner:sc.sc_owner ~value:rw.value ~pid:t.pid
        ~kind:(Dyn_graph.N_external v)
        ~label:t.bp.external_label.(v.vid)
        ()
    in
    Dyn_graph.mark_external t.g node v;
    set_def t sc v node;
    node

(* One edge per distinct variable: a repeated read resolves to the same
   definition, and the graph ignores the duplicate edge. *)
let rec data_edges t node = function
  | [] -> ()
  | (rw : E.rw) :: reads ->
    let src = resolve_read t rw in
    Dyn_graph.add_edge t.g ~src ~dst:node ~kind:(Dyn_graph.Data rw.var);
    data_edges t node reads

let record_write t node (w : E.rw option) =
  match w with
  | None -> ()
  | Some { var; _ } -> set_def t (cur_scope t) var node

(* Dynamic control dependence: the latest executed instance of the
   statement's static control parent. *)
let control_edge t node sid =
  let sc = cur_scope t in
  List.iter
    (fun parent ->
      let src =
        match parent with
        | C_entry -> sc.sc_entry
        | C_pred ps ->
          let inst = sm_find t.last_pred ~scope:sc.sc_id ps in
          (* none should not happen inside a complete interval; fall back *)
          if inst >= 0 then inst else sc.sc_entry
      in
      Dyn_graph.add_edge t.g ~src ~dst:node ~kind:Dyn_graph.Control)
    t.bp.ctrl.(sid)

let sync_link t ~src ~dst =
  match Dyn_graph.find_ref t.g src with
  | Some n -> Dyn_graph.add_edge t.g ~src:n ~dst ~kind:Dyn_graph.Sync
  | None -> t.pending_rev <- (src, dst) :: t.pending_rev

let open_scope t ~owner ~entry ~binds ~from_sub =
  let sc =
    {
      sc_id = fresh_id t;
      sc_owner = owner;
      sc_entry = entry;
      sc_locals_mark = t.locals.sm_top;
      sc_preds_mark = t.last_pred.sm_top;
      sc_open_calls = [];
      sc_open_loops = [];
      sc_last_return = None;
    }
  in
  t.scopes <- sc :: t.scopes;
  (* [binds] are the function's formals in order, so the i-th bind's
     label is its parameter label *)
  List.iteri
    (fun i ((v : P.var), value) ->
      let pnode =
        Dyn_graph.add_node t.g ?owner ~value ~pid:t.pid
          ~kind:(Dyn_graph.N_param (i + 1))
          ~label:t.bp.param_label.(v.vid)
          ()
      in
      (match from_sub with
      | Some sub ->
        Dyn_graph.add_edge t.g ~src:sub ~dst:pnode
          ~kind:(Dyn_graph.Dparam (i + 1))
      | None ->
        Dyn_graph.add_edge t.g ~src:entry ~dst:pnode
          ~kind:(Dyn_graph.Dparam (i + 1)));
      sm_set t.locals ~scope:sc.sc_id v.vid pnode)
    binds

let close_scope t sc rest =
  sm_restore t.locals ~mark:sc.sc_locals_mark;
  sm_restore t.last_pred ~mark:sc.sc_preds_mark;
  t.scopes <- rest

(* The node of a statement event with one result: its data, control
   and flow edges. *)
let singular t ~seq ~sid ~reads value =
  let sc = cur_scope t in
  let node =
    Dyn_graph.add_event_node t.g ~seq ?owner:sc.sc_owner ?value ~pid:t.pid
      ~kind:(Dyn_graph.N_singular sid)
      ~label:t.bp.stmt_label.(sid) ()
  in
  data_edges t node reads;
  control_edge t node sid;
  flow_to t node;
  node

let int_value n = Some (V.Vint n)

let bool_value b = int_value (if b then 1 else 0)

let feed t ~seq (ev : E.t) =
  match ev with
  | E.E_proc_start { fid; binds; spawn } ->
    let entry =
      Dyn_graph.add_event_node t.g ~seq ~pid:t.pid ~kind:(Dyn_graph.N_entry fid)
        ~label:t.bp.entry_label.(fid) ()
    in
    (match spawn with Some r -> sync_link t ~src:r ~dst:entry | None -> ());
    open_scope t ~owner:None ~entry ~binds ~from_sub:None;
    flow_to t entry
  | E.E_enter { fid; call_sid; binds } ->
    let sub =
      match (t.scopes, call_sid) with
      | sc :: _, Some sid -> List.assoc_opt sid sc.sc_open_calls
      | _, _ -> None
    in
    let entry =
      Dyn_graph.add_event_node t.g ~seq ?owner:sub ~pid:t.pid
        ~kind:(Dyn_graph.N_entry fid) ~label:t.bp.entry_label.(fid) ()
    in
    (match sub with
    | Some s -> Dyn_graph.add_edge t.g ~src:s ~dst:entry ~kind:Dyn_graph.Control
    | None -> ());
    open_scope t ~owner:sub ~entry ~binds ~from_sub:sub;
    flow_to t entry
  | E.E_leave _ -> (
    match t.scopes with
    | sc :: rest ->
      t.popped_return <- Option.value sc.sc_last_return ~default:(-1);
      close_scope t sc rest
    | [] -> ())
  | E.E_proc_exit { fid; _ } ->
    let sc_owner = match t.scopes with sc :: _ -> sc.sc_owner | [] -> None in
    let exit_node =
      Dyn_graph.add_event_node t.g ~seq ?owner:sc_owner ~pid:t.pid
        ~kind:(Dyn_graph.N_exit fid) ~label:t.bp.exit_label.(fid) ()
    in
    flow_to t exit_node;
    (match t.scopes with sc :: rest -> close_scope t sc rest | [] -> ())
  | E.E_loop_enter { sid } ->
    let sc = cur_scope t in
    let node =
      (* the loop's own interval, assembled first, made this event's
         node in {!prepare}: adopt it, so an event has one node
         whatever the assembly order *)
      match Dyn_graph.find_event t.g ~pid:t.pid ~seq with
      | Some n ->
        Dyn_graph.set_owner t.g n sc.sc_owner;
        n
      | None ->
        Dyn_graph.add_event_node t.g ~seq ?owner:sc.sc_owner ~pid:t.pid
          ~kind:(Dyn_graph.N_loop sid) ~label:t.bp.loop_label.(sid) ()
    in
    control_edge t node sid;
    flow_to t node;
    sc.sc_open_loops <- (sid, node) :: sc.sc_open_loops
  | E.E_loop_exit { sid; writes } -> (
    let sc = cur_scope t in
    match List.assoc_opt sid sc.sc_open_loops with
    | None -> ()
    | Some lnode -> (
      sc.sc_open_loops <- List.remove_assoc sid sc.sc_open_loops;
      t.last <- lnode;
      match writes with
      | None -> ()
      | Some ws ->
        (* skipped loop e-block: the collapsed node defines its writes *)
        List.iter (fun ((v : P.var), _) -> set_def t sc v lnode) ws))
  | E.E_stmt { sid; reads; write; kind } -> (
    match kind with
    | E.K_assign ->
      let value =
        match write with Some (w : E.rw) -> Some w.value | None -> None
      in
      let node = singular t ~seq ~sid ~reads value in
      record_write t node write
    | E.K_pred b ->
      let node = singular t ~seq ~sid ~reads (bool_value b) in
      sm_set t.last_pred ~scope:(cur_scope t).sc_id sid node
    | E.K_print { value } -> ignore (singular t ~seq ~sid ~reads (Some value))
    | E.K_assert { ok } -> ignore (singular t ~seq ~sid ~reads (bool_value ok))
    | E.K_return { value } ->
      let node = singular t ~seq ~sid ~reads value in
      (cur_scope t).sc_last_return <- Some node
    | E.K_call { callee; args } ->
      let sc = cur_scope t in
      let sub =
        Dyn_graph.add_event_node t.g ~seq ?owner:sc.sc_owner ~pid:t.pid
          ~kind:(Dyn_graph.N_subgraph { sid; callee })
          ~label:t.bp.stmt_label.(sid) ()
      in
      (* actual-parameter mapping (§4.2) *)
      let cargs =
        match t.bp.prog.P.stmts.(sid).desc with
        | P.Scall (_, c) | P.Sspawn (_, c) -> c.cargs
        | _ -> []
      in
      List.iteri
        (fun i arg ->
          let idx = i + 1 in
          match (arg : P.expr) with
          | P.Evar v ->
            let src = resolve_read t { E.var = v; value = List.nth args i } in
            Dyn_graph.add_edge t.g ~src ~dst:sub ~kind:(Dyn_graph.Data v)
          | P.Eint _ | P.Ebool _ -> ()
          | P.Eidx _ | P.Eunop _ | P.Ebinop _ ->
            (* fictional node for an expression argument *)
            let fict =
              Dyn_graph.add_node t.g ?owner:sc.sc_owner
                ~value:(List.nth args i) ~pid:t.pid
                ~kind:(Dyn_graph.N_param idx)
                ~label:t.bp.arg_label.(idx)
                ()
            in
            ignore
              (List.fold_left
                 (fun seen (v : P.var) ->
                   if List.mem v.vid seen then seen
                   else begin
                     (* values of the reads are in the event's read list *)
                     let value =
                       match
                         List.find_opt
                           (fun (rw : E.rw) -> rw.var.P.vid = v.vid)
                           reads
                       with
                       | Some rw -> rw.value
                       | None -> V.Vundef
                     in
                     let src = resolve_read t { E.var = v; value } in
                     Dyn_graph.add_edge t.g ~src ~dst:fict
                       ~kind:(Dyn_graph.Data v);
                     v.vid :: seen
                   end)
                 [] (P.expr_reads arg));
            Dyn_graph.add_edge t.g ~src:fict ~dst:sub
              ~kind:(Dyn_graph.Dparam idx))
        cargs;
      control_edge t sub sid;
      flow_to t sub;
      sc.sc_open_calls <- (sid, sub) :: sc.sc_open_calls
    | E.K_call_return { ret; _ } -> (
      let sc = cur_scope t in
      match List.assoc_opt sid sc.sc_open_calls with
      | None -> ()
      | Some sub ->
        sc.sc_open_calls <- List.remove_assoc sid sc.sc_open_calls;
        (match ret with Some v -> Dyn_graph.set_value t.g sub v | None -> ());
        if t.popped_return >= 0 then begin
          Dyn_graph.add_edge t.g ~src:t.popped_return ~dst:sub
            ~kind:(Dyn_graph.Dparam 0);
          t.popped_return <- -1
        end;
        record_write t sub write;
        t.last <- sub)
    | E.K_p { src; _ } ->
      let node = singular t ~seq ~sid ~reads None in
      (match src with Some r -> sync_link t ~src:r ~dst:node | None -> ());
      record_write t node write
    | E.K_v _ -> ignore (singular t ~seq ~sid ~reads None)
    | E.K_send { value; _ } -> ignore (singular t ~seq ~sid ~reads (int_value value))
    | E.K_send_unblocked { by; _ } ->
      let node = singular t ~seq ~sid ~reads None in
      sync_link t ~src:by ~dst:node
    | E.K_recv { value; src; _ } ->
      let node = singular t ~seq ~sid ~reads (int_value value) in
      sync_link t ~src ~dst:node;
      record_write t node write
    | E.K_spawn { child; _ } ->
      let node = singular t ~seq ~sid ~reads (int_value child) in
      record_write t node write
    | E.K_join { result; child_exit; _ } ->
      let node = singular t ~seq ~sid ~reads result in
      sync_link t ~src:child_exit ~dst:node;
      record_write t node write)

(* Reset the per-interval state and seed the scope: a loop e-block
   interval replays without an opening enter event, so its nodes hang
   off the loop node of the parent fragment when it exists, or a fresh
   collapsed loop node otherwise. *)
let prepare t ~interval =
  let pid = interval.Trace.Log.iv_pid in
  t.interval <- fresh_id t;
  t.pid <- pid;
  t.scopes <- [];
  t.last <- -1;
  t.pending_rev <- [];
  t.popped_return <- -1;
  t.locals.sm_top <- 0;
  t.last_pred.sm_top <- 0;
  match interval.Trace.Log.iv_block with
  | Trace.Log.Bfunc _ -> ()
  | Trace.Log.Bloop sid ->
    let seq = interval.Trace.Log.iv_seq_start - 1 in
    let entry =
      match Dyn_graph.find_event t.g ~pid ~seq with
      | Some n -> n
      | None ->
        Dyn_graph.add_event_node t.g ~seq ~pid
          ~kind:(Dyn_graph.N_loop sid) ~label:t.bp.loop_label.(sid) ()
    in
    open_scope t ~owner:(Some entry) ~entry ~binds:[] ~from_sub:None;
    t.last <- entry

let build_from_outcome t ~interval (outcome : Emulator.outcome) =
  prepare t ~interval;
  List.iter (fun (seq, ev) -> feed t ~seq ev) outcome.Emulator.events;
  (* a link's source precedes its target, so a source missing when the
     target was fed is not in this fragment either *)
  let links = List.rev t.pending_rev in
  t.scopes <- [];
  t.pending_rev <- [];
  links
