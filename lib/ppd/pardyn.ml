module P = Lang.Prog
module E = Runtime.Event
module VS = Analysis.Varset

type eref = E.eref

type node = {
  n_id : int;
  n_ref : eref;
  n_pid : int;
  n_sid : int option;
  n_data : Trace.Log.sync_data;
  mutable n_clock : Vclock.t;
}

type iedge = {
  ie_id : int;
  ie_pid : int;
  ie_from : int;
  ie_to : int option;
  ie_reads : VS.t;
  ie_writes : VS.t;
}

type t = {
  prog : P.t;
  nodes : node array;
  sync_edges : (int * int) array;
  iedges : iedge array;
  iedges_of_pid : int list array;
  succs : int list array;
  preds : int list array;
  node_of_ref : (eref, int) Hashtbl.t;
}

(* Per-process chronological stream consumed by the generic builder. *)
type raw_sync = {
  r_ref : eref;
  r_sid : int option;
  r_data : Trace.Log.sync_data;
  r_reads : int list;  (* shared vids read by the sync event itself *)
  r_writes : int list;  (* shared vids written by it *)
}

type item = I_sync of raw_sync | I_access of int list * int list

(* The incoming synchronization edge a sync node implies, if any. *)
let link_of (data : Trace.Log.sync_data) : eref option =
  match data with
  | Trace.Log.S_kind k -> (
    match k with
    | E.K_p { src; _ } -> src
    | E.K_recv { src; _ } -> Some src
    | E.K_send_unblocked { by; _ } -> Some by
    | E.K_join { child_exit; _ } -> Some child_exit
    | E.K_v _ | E.K_send _ | E.K_spawn _ | E.K_assign | E.K_pred _
    | E.K_call _ | E.K_call_return _ | E.K_return _ | E.K_print _
    | E.K_assert _ ->
      None)
  | Trace.Log.S_proc_start { spawn; _ } -> spawn
  | Trace.Log.S_proc_exit _ -> None

let build (prog : P.t) (streams : item list array) =
  let nvars = prog.nvars in
  let nodes = ref [] and nnodes = ref 0 in
  let node_of_ref = Hashtbl.create 64 in
  let iedges = ref [] and niedges = ref 0 in
  let iedges_of_pid = Array.make (Array.length streams) [] in
  (* sets are persistent: every empty one can be the same *)
  let no_vars = VS.empty nvars in
  let set_of bits =
    if Analysis.Bitset.is_empty bits then no_vars
    else VS.of_list nvars (Analysis.Bitset.elements bits)
  in
  Array.iteri
    (fun pid items ->
      let last_node = ref None in
      let cur_reads = ref (Analysis.Bitset.create nvars) in
      let cur_writes = ref (Analysis.Bitset.create nvars) in
      let add_all set vids = List.iter (fun vid -> Analysis.Bitset.add set vid) vids in
      let close_edge to_node =
        match !last_node with
        | None -> () (* the stream starts with proc_start; nothing before *)
        | Some from_node ->
          let e =
            {
              ie_id = !niedges;
              ie_pid = pid;
              ie_from = from_node;
              ie_to = to_node;
              ie_reads = set_of !cur_reads;
              ie_writes = set_of !cur_writes;
            }
          in
          incr niedges;
          iedges := e :: !iedges;
          iedges_of_pid.(pid) <- e.ie_id :: iedges_of_pid.(pid);
          cur_reads := Analysis.Bitset.create nvars;
          cur_writes := Analysis.Bitset.create nvars
      in
      List.iter
        (fun item ->
          match item with
          | I_access (reads, writes) ->
            add_all !cur_reads reads;
            add_all !cur_writes writes
          | I_sync r ->
            (* the sync event's own reads belong to the incoming edge *)
            add_all !cur_reads r.r_reads;
            let id = !nnodes in
            incr nnodes;
            let n =
              {
                n_id = id;
                n_ref = r.r_ref;
                n_pid = pid;
                n_sid = r.r_sid;
                n_data = r.r_data;
                n_clock = Vclock.empty;
              }
            in
            nodes := n :: !nodes;
            Hashtbl.replace node_of_ref r.r_ref id;
            close_edge (Some id);
            last_node := Some id;
            (* its writes are protected by the incoming sync edge *)
            add_all !cur_writes r.r_writes)
        items;
      (* trailing accesses after the last sync node (halt mid-edge) *)
      if
        (not (Analysis.Bitset.is_empty !cur_reads)) || not (Analysis.Bitset.is_empty !cur_writes)
      then close_edge None)
    streams;
  let nodes = Array.of_list (List.rev !nodes) in
  let iedges = Array.of_list (List.rev !iedges) in
  let iedges_of_pid = Array.map List.rev iedges_of_pid in
  (* synchronization edges from the per-node links *)
  let sync_edges =
    Array.to_list nodes
    |> List.filter_map (fun n ->
           match link_of n.n_data with
           | None -> None
           | Some src -> (
             match Hashtbl.find_opt node_of_ref src with
             | Some from -> Some (from, n.n_id)
             | None -> None))
    |> Array.of_list
  in
  let nn = Array.length nodes in
  let succs = Array.make nn [] and preds = Array.make nn [] in
  let add_edge (a, b) =
    succs.(a) <- b :: succs.(a);
    preds.(b) <- a :: preds.(b)
  in
  Array.iter add_edge sync_edges;
  Array.iter
    (fun e -> match e.ie_to with Some b -> add_edge (e.ie_from, b) | None -> ())
    iedges;
  (* vector clocks by Kahn topological traversal *)
  let indeg = Array.make nn 0 in
  Array.iteri (fun n ps -> indeg.(n) <- List.length ps) preds;
  let q = Queue.create () in
  Array.iteri (fun n d -> if d = 0 then Queue.add n q) indeg;
  let visited = ref 0 in
  while not (Queue.is_empty q) do
    let n = Queue.take q in
    incr visited;
    let joined =
      List.fold_left
        (fun acc p -> Vclock.join acc nodes.(p).n_clock)
        Vclock.empty preds.(n)
    in
    nodes.(n).n_clock <- Vclock.tick joined ~pid:nodes.(n).n_pid;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s q)
      succs.(n)
  done;
  assert (!visited = nn);
  {
    prog;
    nodes;
    sync_edges;
    iedges;
    iedges_of_pid;
    succs;
    preds;
    node_of_ref;
  }

(* ------------------------------------------------------------------ *)
(* Constructors.                                                        *)
(* ------------------------------------------------------------------ *)

let shared_vids rws =
  List.filter_map
    (fun (rw : E.rw) ->
      if P.is_shared rw.var then Some rw.var.P.vid else None)
    rws

let sync_item ~pid ~seq sid data reads writes =
  Some
    (I_sync
       {
         r_ref = { E.epid = pid; eseq = seq };
         r_sid = sid;
         r_data = data;
         r_reads = reads;
         r_writes = writes;
       })

(* One event as builder input: a sync node carrying the event's own
   shared reads and writes ({!build} splits them between the incoming
   and outgoing edges), a plain access, or nothing. The loop-exit event
   a replay emits for a skipped nested loop e-block carries that block's
   postlog writes as a stand-in; it is dropped, because the nested
   block's own replay supplies its accesses at their true seqs. *)
let item_of_event ~pid ~seq (ev : E.t) =
  match ev with
  | E.E_proc_start { fid; spawn; _ } ->
    sync_item ~pid ~seq None (Trace.Log.S_proc_start { fid; spawn }) [] []
  | E.E_proc_exit { fid; result } ->
    sync_item ~pid ~seq None (Trace.Log.S_proc_exit { fid; result }) [] []
  | E.E_enter _ | E.E_leave _ | E.E_loop_enter _ | E.E_loop_exit _ -> None
  | E.E_stmt { sid; reads; write; kind } -> (
    let rvids = shared_vids reads in
    let wvids =
      match write with
      | Some { var; _ } when P.is_shared var -> [ var.P.vid ]
      | Some _ | None -> []
    in
    match kind with
    | E.K_p _ | E.K_v _ | E.K_send _ | E.K_send_unblocked _ | E.K_recv _
    | E.K_spawn _ | E.K_join _ ->
      sync_item ~pid ~seq (Some sid) (Trace.Log.S_kind kind) rvids wvids
    | E.K_assign | E.K_pred _ | E.K_call _ | E.K_call_return _ | E.K_return _
    | E.K_print _ | E.K_assert _ ->
      if rvids <> [] || wvids <> [] then Some (I_access (rvids, wvids))
      else None)

type access = int * item

(* What race detection keeps of a replayed event: a plain access, or a
   sync event that reads or writes shared variables itself. Only a
   statement can access one; the test comes first, so that assembling an
   interval allocates nothing for the events that do not. *)
let access_of_event ~pid ~seq (ev : E.t) =
  match ev with
  | E.E_stmt { reads; write; _ }
    when List.exists (fun (rw : E.rw) -> P.is_shared rw.var) reads
         || match write with Some { var; _ } -> P.is_shared var | None -> false
    -> (
    match item_of_event ~pid ~seq ev with Some a -> Some (seq, a) | None -> None)
  | _ -> None

let of_accesses (prog : P.t) (log : Trace.Log.t) accesses =
  (* the log's sync records in order, each with its replayed event's
     own accesses, and the plain accesses between them (a replayed sync
     event always has its record, having been checked against it; one
     without would count as a plain access) *)
  let stream pid entries =
    let rec before s out = function
      | (seq, a) :: rest when seq < s ->
        let a =
          match a with I_sync r -> I_access (r.r_reads, r.r_writes) | I_access _ -> a
        in
        before s (a :: out) rest
      | rest -> (out, rest)
    in
    let items, rest =
      Array.fold_left
        (fun (out, pending) entry ->
          match entry with
          | Trace.Log.Sync { sid; seq; data; _ } ->
            let out, pending = before seq out pending in
            let reads, writes, pending =
              match pending with
              | (s, I_sync r) :: rest when s = seq -> (r.r_reads, r.r_writes, rest)
              | _ -> ([], [], pending)
            in
            ( I_sync
                {
                  r_ref = { E.epid = pid; eseq = seq };
                  r_sid = sid;
                  r_data = data;
                  r_reads = reads;
                  r_writes = writes;
                }
              :: out,
              pending )
          | Trace.Log.Prelog _ | Trace.Log.Postlog _ | Trace.Log.Sync_prelog _ ->
            (out, pending))
        ([], List.sort (fun (a, _) (b, _) -> Int.compare a b) (accesses ~pid))
        entries
    in
    List.rev (fst (before max_int items rest))
  in
  build prog (Array.mapi stream log.Trace.Log.entries)

let of_log prog log = of_accesses prog log (fun ~pid:_ -> [])

type obs = {
  oprog : P.t;
  mutable ostreams : item list ref array;  (* per pid, reversed *)
}

let observer prog = { oprog = prog; ostreams = [| ref [] |] }

let ensure_pid o pid =
  let n = Array.length o.ostreams in
  if pid >= n then
    o.ostreams <-
      Array.init (pid + 1) (fun i -> if i < n then o.ostreams.(i) else ref [])

let obs_event o ~pid ~seq ev =
  ensure_pid o pid;
  let cell = o.ostreams.(pid) in
  Option.iter (fun item -> cell := item :: !cell) (item_of_event ~pid ~seq ev)

let factory o _port =
  {
    Runtime.Hooks.on_event = (fun ~pid ~seq ev -> obs_event o ~pid ~seq ev);
    locals = true;
  }

let finish o =
  build o.oprog (Array.map (fun cell -> List.rev !cell) o.ostreams)

(* ------------------------------------------------------------------ *)
(* Ordering queries.                                                    *)
(* ------------------------------------------------------------------ *)

let node_of t ref_ = Hashtbl.find_opt t.node_of_ref ref_

let node_hb t a b =
  let na = t.nodes.(a) in
  Vclock.happened_before ~own_pid:na.n_pid na.n_clock t.nodes.(b).n_clock

let node_reaches t a b =
  let seen = Hashtbl.create 16 in
  let rec go n =
    n = b
    ||
    if Hashtbl.mem seen n then false
    else begin
      Hashtbl.add seen n ();
      List.exists go t.succs.(n)
    end
  in
  go a

let edge_before t e1 e2 =
  match e1.ie_to with
  | None -> false
  | Some n1_end -> node_hb t n1_end e2.ie_from

let simultaneous t e1 e2 =
  (not (edge_before t e1 e2)) && not (edge_before t e2 e1)

let pp_node ppf n =
  Format.fprintf ppf "n%d %a %s %a" n.n_id E.pp_eref n.n_ref
    (Format.asprintf "%a" (Trace.Log.pp_sync_data) n.n_data)
    Vclock.pp n.n_clock

let pp ppf t =
  Format.fprintf ppf "@[<v>parallel dynamic graph:";
  Array.iteri
    (fun pid edge_ids ->
      Format.fprintf ppf "@,process %d:" pid;
      let nodes_of_pid =
        Array.to_list t.nodes |> List.filter (fun n -> n.n_pid = pid)
      in
      List.iter (fun n -> Format.fprintf ppf "@,  %a" pp_node n) nodes_of_pid;
      List.iter
        (fun eid ->
          let e = t.iedges.(eid) in
          Format.fprintf ppf "@,  edge e%d: n%d -> %s reads=%a writes=%a"
            e.ie_id e.ie_from
            (match e.ie_to with
            | Some n -> "n" ^ string_of_int n
            | None -> "(open)")
            (VS.pp_named t.prog) e.ie_reads (VS.pp_named t.prog) e.ie_writes)
        edge_ids)
    t.iedges_of_pid;
  Format.fprintf ppf "@,sync edges:";
  Array.iter
    (fun (a, b) -> Format.fprintf ppf "@,  n%d -> n%d" a b)
    t.sync_edges;
  Format.fprintf ppf "@]"
