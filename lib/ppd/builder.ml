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

type scope = {
  sc_owner : int option;  (* sub-graph node owning the members *)
  sc_entry : int;
  sc_local_def : (int, int) Hashtbl.t;  (* vid -> node *)
  sc_last_pred : (int, int) Hashtbl.t;  (* predicate sid -> node instance *)
  mutable sc_open_calls : (int * int) list;  (* call sid -> sub-graph node *)
  mutable sc_open_loops : (int * int) list;  (* loop sid -> loop node *)
  mutable sc_last_return : int option;
}

type t = {
  bp : program;
  g : Dyn_graph.t;
  pid : int;
  mutable scopes : scope list;
  glob_def : (int, int) Hashtbl.t;  (* global vid -> node *)
  mutable last : int option;
  mutable pending_rev : (E.eref * int) list;
  mutable popped_return : int option;
      (* return node of the callee just left, for the %0 edge *)
}

let create bp g ~pid =
  {
    bp;
    g;
    pid;
    scopes = [];
    glob_def = Hashtbl.create 32;
    last = None;
    pending_rev = [];
    popped_return = None;
  }

let cur_scope t =
  match t.scopes with
  | [] -> invalid_arg "Builder: no open scope (stream must start with enter)"
  | s :: _ -> s

let flow_to t node =
  (match t.last with
  | Some prev -> Dyn_graph.add_edge t.g ~src:prev ~dst:node ~kind:Dyn_graph.Flow
  | None -> ());
  t.last <- Some node

(* Resolve the defining node of a read; creates a frontier node when
   the definition lies outside the fragment. *)
let resolve_read t (rw : E.rw) =
  let v = rw.var in
  let sc = cur_scope t in
  let table = if P.is_global v then t.glob_def else sc.sc_local_def in
  match Hashtbl.find_opt table v.vid with
  | Some node -> node
  | None ->
    let node =
      Dyn_graph.add_node t.g ?owner:sc.sc_owner ~value:rw.value ~pid:t.pid
        ~kind:(Dyn_graph.N_external v)
        ~label:t.bp.external_label.(v.vid)
        ()
    in
    Dyn_graph.mark_external t.g node v;
    Hashtbl.replace table v.vid node;
    node

let data_edges t node reads =
  (* one edge per distinct variable (read lists are short) *)
  ignore
    (List.fold_left
       (fun seen (rw : E.rw) ->
         let vid = rw.var.P.vid in
         if List.mem vid seen then seen
         else begin
           let src = resolve_read t rw in
           Dyn_graph.add_edge t.g ~src ~dst:node ~kind:(Dyn_graph.Data rw.var);
           vid :: seen
         end)
       [] reads)

let record_write t node (w : E.rw option) =
  match w with
  | None -> ()
  | Some { var; _ } ->
    let sc = cur_scope t in
    let table = if P.is_global var then t.glob_def else sc.sc_local_def in
    Hashtbl.replace table var.vid node

(* Dynamic control dependence: the latest executed instance of the
   statement's static control parent. *)
let control_edge t node sid =
  let sc = cur_scope t in
  List.iter
    (fun parent ->
      let src =
        match parent with
        | C_entry -> sc.sc_entry
        | C_pred ps -> (
          match Hashtbl.find_opt sc.sc_last_pred ps with
          | Some inst -> inst
          | None ->
            (* should not happen inside a complete interval; fall back *)
            sc.sc_entry)
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
      sc_owner = owner;
      sc_entry = entry;
      sc_local_def = Hashtbl.create 16;
      sc_last_pred = Hashtbl.create 8;
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
      Hashtbl.replace sc.sc_local_def v.vid pnode)
    binds

let feed t ~seq (ev : E.t) =
  let ref_ = { E.epid = t.pid; eseq = seq } in
  match ev with
  | E.E_proc_start { fid; binds; spawn } ->
    let entry =
      Dyn_graph.add_node t.g ~ref_ ~pid:t.pid ~kind:(Dyn_graph.N_entry fid)
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
      Dyn_graph.add_node t.g ~ref_ ?owner:sub ~pid:t.pid
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
      t.popped_return <- sc.sc_last_return;
      t.scopes <- rest
    | [] -> ())
  | E.E_proc_exit { fid; _ } ->
    let sc_owner = match t.scopes with sc :: _ -> sc.sc_owner | [] -> None in
    let exit_node =
      Dyn_graph.add_node t.g ~ref_ ?owner:sc_owner ~pid:t.pid
        ~kind:(Dyn_graph.N_exit fid) ~label:t.bp.exit_label.(fid) ()
    in
    flow_to t exit_node;
    (match t.scopes with _ :: rest -> t.scopes <- rest | [] -> ())
  | E.E_loop_enter { sid } ->
    let sc = cur_scope t in
    let node =
      Dyn_graph.add_node t.g ~ref_ ?owner:sc.sc_owner ~pid:t.pid
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
      t.last <- Some lnode;
      match writes with
      | None -> ()
      | Some ws ->
        (* skipped loop e-block: the collapsed node defines its writes *)
        List.iter
          (fun ((v : P.var), _) ->
            let table = if P.is_global v then t.glob_def else sc.sc_local_def in
            Hashtbl.replace table v.vid lnode)
          ws))
  | E.E_stmt { sid; reads; write; kind } -> (
    let label = t.bp.stmt_label.(sid) in
    let singular ?value () =
      let sc = cur_scope t in
      let node =
        Dyn_graph.add_node t.g ~ref_ ?owner:sc.sc_owner ?value ~pid:t.pid
          ~kind:(Dyn_graph.N_singular sid)
          ~label ()
      in
      data_edges t node reads;
      control_edge t node sid;
      flow_to t node;
      node
    in
    match kind with
    | E.K_assign ->
      let value = Option.map (fun (w : E.rw) -> w.value) write in
      let node = singular ?value () in
      record_write t node write
    | E.K_pred b ->
      let node = singular ~value:(V.Vint (if b then 1 else 0)) () in
      (cur_scope t).sc_last_pred |> fun tbl -> Hashtbl.replace tbl sid node
    | E.K_print { value } -> ignore (singular ~value ())
    | E.K_assert { ok } -> ignore (singular ~value:(V.Vint (if ok then 1 else 0)) ())
    | E.K_return { value } ->
      let node = singular ?value () in
      (cur_scope t).sc_last_return <- Some node
    | E.K_call { callee; args } ->
      let sc = cur_scope t in
      let sub =
        Dyn_graph.add_node t.g ~ref_ ?owner:sc.sc_owner ~pid:t.pid
          ~kind:(Dyn_graph.N_subgraph { sid; callee })
          ~label ()
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
        (match t.popped_return with
        | Some rnode ->
          Dyn_graph.add_edge t.g ~src:rnode ~dst:sub
            ~kind:(Dyn_graph.Dparam 0);
          t.popped_return <- None
        | None -> ());
        record_write t sub write;
        t.last <- Some sub)
    | E.K_p { src; _ } ->
      let node = singular () in
      (match src with Some r -> sync_link t ~src:r ~dst:node | None -> ());
      record_write t node write
    | E.K_v _ -> ignore (singular ())
    | E.K_send { value; _ } -> ignore (singular ~value:(V.Vint value) ())
    | E.K_send_unblocked { by; _ } ->
      let node = singular () in
      sync_link t ~src:by ~dst:node
    | E.K_recv { value; src; _ } ->
      let node = singular ~value:(V.Vint value) () in
      sync_link t ~src ~dst:node;
      record_write t node write
    | E.K_spawn { child; _ } ->
      let node = singular ~value:(V.Vint child) () in
      record_write t node write
    | E.K_join { result; child_exit; _ } ->
      let node = singular ?value:result () in
      sync_link t ~src:child_exit ~dst:node;
      record_write t node write)

(* A builder with its scope seeded for the interval: a loop e-block
   interval replays without an opening enter event, so its nodes hang
   off the loop node of the parent fragment when it exists, or a fresh
   collapsed loop node otherwise. *)
let prepare bp g ~interval =
  let pid = interval.Trace.Log.iv_pid in
  let t = create bp g ~pid in
  (match interval.Trace.Log.iv_block with
  | Trace.Log.Bfunc _ -> ()
  | Trace.Log.Bloop sid ->
    let enter_ref =
      { E.epid = pid; eseq = interval.Trace.Log.iv_seq_start - 1 }
    in
    let entry =
      match Dyn_graph.find_ref g enter_ref with
      | Some n -> n
      | None ->
        Dyn_graph.add_node g ~ref_:enter_ref ~pid
          ~kind:(Dyn_graph.N_loop sid) ~label:bp.loop_label.(sid) ()
    in
    open_scope t ~owner:(Some entry) ~entry ~binds:[] ~from_sub:None;
    t.last <- Some entry);
  t

let build_from_outcome bp g ~interval (outcome : Emulator.outcome) =
  let t = prepare bp g ~interval in
  List.iter (fun (seq, ev) -> feed t ~seq ev) outcome.Emulator.events;
  (* a link's source precedes its target, so a source missing when the
     target was fed is not in this fragment either *)
  List.rev t.pending_rev
