module P = Lang.Prog
module E = Runtime.Event
module L = Trace.Log
module IT = Hashtbl.Make (Int)

(* Degraded-mode policy (DESIGN §12) plus the per-request resilience
   envelope (DESIGN §17). [degraded] turns damaged or unreplayable
   intervals into explicit hole nodes instead of letting the exception
   abort the query; [retries] bounds how many times a
   transiently-failed pool replay is re-attempted (serially, on the
   querying domain, so -jN output stays identical to -j1) before a hole
   is declared; [max_replay_steps] is the runaway-replay watchdog fed
   to {!Emulator.replay}; [deadline] is checked at every e-block
   assembly boundary ([build_interval] entry) and propagates as
   [Resil.Deadline.Expired]; [backoff] (with [retry_seed]) spaces the
   serial retries out instead of hammering a recovering store — delays
   never change what is computed, so outputs stay byte-identical. *)
type config = {
  degraded : bool;
  retries : int;
  max_replay_steps : int;
  deadline : Resil.Deadline.t;
  backoff : Resil.Backoff.policy option;
  retry_seed : int;
}

let default_config =
  {
    degraded = false;
    retries = 2;
    max_replay_steps = 1_000_000;
    deadline = Resil.Deadline.none;
    backoff = None;
    retry_seed = 0;
  }

exception Replay_overrun of { pid : int; iv_id : int; budget : int }

type hole = {
  h_pid : int;
  h_iv_id : int;
  h_seq_lo : int;
  h_seq_hi : int;
  h_reason : string;
}

(* A sync link whose source event has no node yet. [l_pos] fixes the
   order in which {!link_fragment} connects the links that share a
   source event: every assembly and every [why] reverse that order, and
   the links an assembly adds come last, latest event first. The graph
   dumps pin the resulting edge order. *)
type link = { l_src : E.eref; l_dst : int; l_pos : int }

type t = {
  eb : Analysis.Eblock.t;
  src : Store.Segment.reader;
      (* where the entries come from: an open segment decoded interval
         by interval as queries touch it (the demand-paged debugging
         phase), or a log already in memory *)
  mutable race_answer : (Pardyn.t * Race.stats) option;
      (* built on the first race query, from the replays of the
         intervals that may touch a shared variable *)
  g : Dyn_graph.t;
  asm : Builder.t;  (* assembles fragments into [g] *)
  ivs : L.interval array array;  (* per pid *)
  outcomes : (int * int, Emulator.outcome) Hashtbl.t;
      (* intervals whose fragment is in the graph *)
  pool : Exec.Pool.t option;  (* None = the bit-identical serial path *)
  shared : Fragcache.t option;
      (* cross-controller fragment cache (one per log identity in the
         `ppd serve` registry); clean outcomes are published here and
         consulted before any replay *)
  src_tier : string;
      (* tier of the *original* source ("content"/"order") — the shared
         cache key prefix, so outcomes derived from a reconstructed
         order log never mix with directly-recorded ones *)
  inflight : (int * int, Emulator.outcome Exec.Pool.future) Hashtbl.t;
      (* replays submitted to the pool, not yet assembled; main-domain
         state, so no lock *)
  by_src : link list IT.t;
      (* pending sync links by source event ({!event_key}): each node an
         assembly adds is looked up here, so a link resolves once its
         source exists *)
  by_dst : link IT.t;
      (* the same links by target node; a node has at most one sync
         source *)
  mutable link_lo : int;
  mutable link_hi : int;
  mutable links_desc : bool;
  mutable replays : int;
  mutable replay_steps : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  config : config;
  mutable holes_rev : hole list;
  mutable retried : int;
}

type stats = {
  replays : int;
  replay_steps : int;
  intervals_total : int;
  cache_hits : int;
  cache_misses : int;
  holes : int;
  retried : int;
}

(* Debugging-phase counters (no-ops until [Obs.enable]). A cache
   "lookup" is one [build_interval] assembly request; it "hits" when
   the outcome already exists (assembled, submitted to the pool, or in
   the shared cache) and "misses" when a serial replay is forced —
   exactly one of the two per lookup, so hits + misses = lookups. *)
let c_replays = Obs.counter "ppd.controller.replays"

let c_replay_steps = Obs.counter "ppd.controller.replay_steps"

let c_lookups = Obs.counter "ppd.controller.cache.lookups"

let c_hits = Obs.counter "ppd.controller.cache.hits"

let c_misses = Obs.counter "ppd.controller.cache.misses"

let c_holes = Obs.counter "ctl.holes"

let c_retries = Obs.counter "ctl.retries"

let start_paged ?pool ?shared ?(config = default_config) eb src =
  (* An order-tier log carries no value snapshots, so nothing here can
     emulate from it directly. Debug the equivalent content log instead
     (DESIGN §16): the reconstruction is validated against the recorded
     sync order, so every downstream answer is byte-identical to
     debugging a content recording of the same execution. A shared
     cache reconstructs once for every controller it serves. *)
  let tier = Store.Segment.tier src in
  let src =
    if tier = L.T_content then src
    else
      match shared with
      | Some f -> Fragcache.reconstruction f eb src
      | None -> fst (Reconstruct.reader eb src)
  in
  let prog = eb.Analysis.Eblock.prog in
  let stmt_fid sid = prog.P.stmt_fid.(sid) in
  let bp =
    match shared with
    | Some f -> Fragcache.program f prog
    | None -> Builder.program prog
  in
  let g = Dyn_graph.create () in
  {
    eb;
    src;
    race_answer = None;
    g;
    asm = Builder.create bp g;
    ivs =
      Array.init (Store.Segment.nprocs src) (fun pid ->
          Store.Segment.intervals src ~stmt_fid ~pid);
    outcomes = Hashtbl.create 16;
    pool;
    shared;
    src_tier = L.tier_name tier;
    inflight = Hashtbl.create 16;
    by_src = IT.create 16;
    by_dst = IT.create 16;
    link_lo = 0;
    link_hi = 0;
    links_desc = false;
    replays = 0;
    replay_steps = 0;
    cache_hits = 0;
    cache_misses = 0;
    config;
    holes_rev = [];
    retried = 0;
  }

let start ?pool ?shared ?config eb log =
  start_paged ?pool ?shared ?config eb (Store.Segment.of_log log)

(* The log slice an interval's emulation touches: entries
   [iv_prelog - 1 .. iv_postlog] (the preceding sync record through the
   closing postlog, or the process's end for open intervals). A paged
   source decodes exactly that window. *)
let interval_log t (iv : L.interval) =
  let pid = iv.L.iv_pid in
  let hi =
    match iv.L.iv_postlog with
    | Some p -> p
    | None -> Store.Segment.pid_entry_count t.src ~pid - 1
  in
  Store.Segment.window t.src ~pid ~lo:(iv.L.iv_prelog - 1) ~hi

let graph t = t.g

let prog t = t.eb.Analysis.Eblock.prog

let intervals t ~pid = t.ivs.(pid)

(* Links in the order [link_fragment] connects them. *)
let in_visit_order t links =
  let asc a b = Int.compare a.l_pos b.l_pos in
  List.sort (if t.links_desc then fun a b -> asc b a else asc) links

(* An event as one int, for the pending-link table. *)
let event_key t ~pid ~seq = (seq * Array.length t.ivs) + pid

(* After an assembly added nodes [first ..]: connect the pending links
   whose source is among them, then file the fragment's own unresolved
   [links] (in event order). *)
let link_fragment t ~first links =
  if IT.length t.by_src > 0 then
    for src = first to Dyn_graph.nnodes t.g - 1 do
      let seq = Dyn_graph.node_seq t.g src in
      if seq >= 0 then
        let key = event_key t ~pid:(Dyn_graph.node_pid t.g src) ~seq in
        match IT.find_opt t.by_src key with
        | None -> ()
        | Some ls ->
          IT.remove t.by_src key;
          List.iter
            (fun l ->
              IT.remove t.by_dst l.l_dst;
              Dyn_graph.add_edge t.g ~src ~dst:l.l_dst ~kind:Dyn_graph.Sync)
            (in_visit_order t ls)
    done;
  t.links_desc <- not t.links_desc;
  List.iter
    (fun (src, dst) ->
      let pos =
        if t.links_desc then begin
          t.link_lo <- t.link_lo - 1;
          t.link_lo
        end
        else begin
          t.link_hi <- t.link_hi + 1;
          t.link_hi
        end
      in
      let l = { l_src = src; l_dst = dst; l_pos = pos } in
      let key = event_key t ~pid:src.E.epid ~seq:src.E.eseq in
      IT.replace t.by_dst dst l;
      IT.replace t.by_src key
        (l :: Option.value ~default:[] (IT.find_opt t.by_src key)))
    (List.rev links)

(* Replay an interval on the calling domain. Safe on a pool worker:
   the emulator touches only its own state, and a paged source's page
   cache is sharded per domain ({!Store.Segment}). *)
let replay_outcome t (iv : L.interval) =
  Emulator.replay ~max_steps:t.config.max_replay_steps t.eb (interval_log t iv)
    ~interval:iv

(* Consult the cross-controller fragment cache. A cached outcome whose
   step count exceeds *this* controller's watchdog budget is ignored:
   the consumer must see the same overrun a fresh replay would report,
   so a generous producer cannot mask a tight consumer's PPD060. *)
let shared_find t (pid, iv_id) =
  match t.shared with
  | None -> None
  | Some sh -> (
    match Fragcache.find sh (t.src_tier, pid, iv_id) with
    | Some o when o.Emulator.steps <= t.config.max_replay_steps -> Some o
    | Some _ | None -> None)

let shared_mem t (pid, iv_id) =
  match t.shared with
  | None -> false
  | Some sh -> Fragcache.mem sh (t.src_tier, pid, iv_id)

(* Replay [iv] on the pool, unless it is already assembled, in flight
   or in the shared cache; {!build_interval} collects the future. *)
let submit_replay t pool (iv : L.interval) =
  let key = (iv.L.iv_pid, iv.L.iv_id) in
  if
    not
      (Hashtbl.mem t.outcomes key
      || Hashtbl.mem t.inflight key
      || shared_mem t key)
  then
    Hashtbl.replace t.inflight key
      (Exec.Pool.submit pool (fun () -> replay_outcome t iv))

(* An inert outcome standing in for an interval we could not replay:
   no events means no nodes, so downstream resolution simply fails to
   find writers there and moves on. *)
let hole_outcome reason =
  {
    Emulator.events = [];
    steps = 0;
    output = "";
    fault = Some reason;
    overrun = false;
    postlog_mismatches = [];
  }

(* Degraded mode's answer to a damaged or unreplayable interval: an
   explicit hole node in the graph (flowback annotates it instead of
   raising), recorded in assembly order on the querying domain, so
   -jN output stays identical to -j1. *)
let declare_hole t ~pid ~(iv : L.interval) reason =
  let lo = iv.L.iv_seq_start in
  let hi =
    match iv.L.iv_seq_end with
    | Some e -> e
    | None -> max lo ((Store.Segment.stops t.src).(pid) - 1)
  in
  let label =
    Printf.sprintf "history unavailable for p%d steps %d-%d (%s)" pid lo hi
      reason
  in
  ignore
    (Dyn_graph.add_node t.g ~pid
       ~kind:(Dyn_graph.N_hole { hole_lo = lo; hole_hi = hi })
       ~label ());
  t.holes_rev <-
    { h_pid = pid; h_iv_id = iv.L.iv_id; h_seq_lo = lo; h_seq_hi = hi;
      h_reason = reason }
    :: t.holes_rev;
  Obs.incr c_holes;
  hole_outcome reason

let holes t = List.rev t.holes_rev

(* Retry a transiently-failed replay up to the configured budget. The
   first attempt may have run on a pool worker; every retry runs
   serially right here, which both sidesteps the flaky worker and keeps
   graph assembly order deterministic. *)
let with_retries t (iv : L.interval) first =
  let rec go attempt thunk =
    match thunk () with
    | o -> o
    | exception Fault.Injected _ when attempt < t.config.retries ->
      t.retried <- t.retried + 1;
      Obs.incr c_retries;
      (* space retries out under the configured policy (DESIGN §17);
         the delay is deterministic in (seed, attempt) and changes
         nothing about what is recomputed *)
      (match t.config.backoff with
      | Some policy ->
        Resil.Backoff.sleep_ms
          (Resil.Backoff.delay_ms ~policy ~seed:t.config.retry_seed attempt)
      | None -> ());
      go (attempt + 1) (fun () -> replay_outcome t iv)
  in
  go 0 first

let reason_of_failure = function
  | Fault.Injected { site; kind } ->
    Printf.sprintf "injected %s fault at %s" (Fault.kind_to_string kind) site
  | Store.Segment.Unreadable { reason; _ } ->
    Printf.sprintf "log page damaged: %s" reason
  | Emulator.Replay_mismatch m -> Printf.sprintf "replay diverged: %s" m
  | e -> Printexc.to_string e

(* An interval's outcome through the caches, the retries and the
   watchdog. [assemble:false] serves race detection, which reads the
   events only: the outcome is published but not assembled. *)
let interval_outcome ~assemble (t : t) ~pid ~iv_id =
  (* the e-block boundary is the deadline propagation point: a query
     that expires mid-flowback stops before the next replay instead of
     holding its slot to completion (DESIGN §17) *)
  Resil.Deadline.check t.config.deadline;
  let key = (pid, iv_id) in
  Obs.incr c_lookups;
  let hit () =
    Obs.incr c_hits;
    t.cache_hits <- t.cache_hits + 1
  in
  match Hashtbl.find_opt t.outcomes key with
  | Some o ->
    hit ();
    o
  | None ->
    let iv = t.ivs.(pid).(iv_id) in
    let acquire () =
      match Hashtbl.find_opt t.inflight key with
      | Some fut ->
        hit ();
        Exec.Pool.await fut
      | None -> (
        match shared_find t key with
        | Some o ->
          hit ();
          o
        | None ->
          Obs.incr c_misses;
          t.cache_misses <- t.cache_misses + 1;
          replay_outcome t iv)
    in
    let is_hole = ref false in
    let hole reason =
      is_hole := true;
      declare_hole t ~pid ~iv reason
    in
    let outcome =
      match with_retries t iv acquire with
      | o ->
        if not o.Emulator.overrun then o
        else if t.config.degraded then hole "replay step budget exhausted"
        else
          raise
            (Replay_overrun { pid; iv_id; budget = t.config.max_replay_steps })
      | exception ((Fault.Injected _ | Store.Segment.Unreadable _) as e)
        when t.config.degraded ->
        hole (reason_of_failure e)
      (* to race detection a divergence is evidence, not damage *)
      | exception (Emulator.Replay_mismatch _ as e)
        when t.config.degraded && assemble ->
        hole (reason_of_failure e)
    in
    Hashtbl.remove t.inflight key;
    if !is_hole then begin
      (* a hole: nothing to assemble, and it does not count as a replay *)
      Hashtbl.replace t.outcomes key outcome;
      outcome
    end
    else if not assemble then begin
      (match t.shared with
      | Some sh -> Fragcache.publish sh (t.src_tier, pid, iv_id) outcome
      | None -> ());
      outcome
    end
    else begin
      (* Graph assembly always happens here, on the querying domain, in
         query order: replay never reads the graph, so feeding a
         worker-produced outcome builds the same fragment a serial replay
         would, and parallel and serial runs yield identical graphs. The
         counters are bumped the same way on every path, so [-jN]
         statistics match [-j1] byte for byte. *)
      let first = Dyn_graph.nnodes t.g in
      let links = Builder.build_from_outcome t.asm ~interval:iv outcome in
      t.replays <- t.replays + 1;
      t.replay_steps <- t.replay_steps + outcome.Emulator.steps;
      Obs.incr c_replays;
      Obs.add c_replay_steps outcome.Emulator.steps;
      link_fragment t ~first links;
      Hashtbl.replace t.outcomes key outcome;
      (* publish clean outcomes for sibling sessions on the same log
         ([Fragcache.publish] drops faulted/overrun ones itself) *)
      (match t.shared with
      | Some sh -> Fragcache.publish sh (t.src_tier, pid, iv_id) outcome
      | None -> ());
      outcome
    end

let build_interval t ~pid ~iv_id = interval_outcome ~assemble:true t ~pid ~iv_id

let submit_all t keys =
  Option.iter
    (fun pool ->
      List.iter
        (fun (pid, iv_id) -> submit_replay t pool t.ivs.(pid).(iv_id))
        keys)
    t.pool

(* Batch-emulate a set of intervals: submit every missing one to the
   pool, then assemble in list order on this domain. Without a pool
   this degenerates to the serial loop and builds the same graph. *)
let build_intervals_par t keys =
  submit_all t keys;
  List.iter (fun (pid, iv_id) -> ignore (build_interval t ~pid ~iv_id)) keys

(* The events a diverged interval replayed before its mismatch. The
   interval is not assembled, and its outcome is not cached. *)
let diverged_events t (iv : L.interval) =
  let evs = ref [] in
  (try
     ignore
       (Emulator.replay
          ~on_event:(fun ~seq ev -> evs := (seq, ev) :: !evs)
          ~max_steps:t.config.max_replay_steps t.eb (interval_log t iv)
          ~interval:iv)
   with Emulator.Replay_mismatch _ -> ());
  !evs

(* Whether an interval's replay can show a shared access. A function
   block's USED and DEFINED sets (§5.1) cover every variable it and its
   inlined callees may read or write, so a block naming no shared
   variable adds nothing to the race sets and is not replayed for them.
   Loop blocks are always replayed. *)
let may_touch_shared t (iv : L.interval) =
  match iv.L.iv_block with
  | L.Bloop _ -> true
  | L.Bfunc fid ->
    let vars = (prog t).P.vars in
    let shared set =
      Analysis.Varset.fold (fun vid acc -> acc || P.is_shared vars.(vid)) set false
    in
    shared t.eb.Analysis.Eblock.used.(fid)
    || shared t.eb.Analysis.Eblock.defined.(fid)

(* The events of every interval that may touch a shared variable,
   through the usual path (pool, caches, retries, deadline) without
   assembling them; then the graph with the replayed access sets, its
   race stats and the replay steps they took. The replays are charged
   to this controller's statistics, like assembled ones. A diverged
   replay is evidence of a race, in degraded mode too. A build that saw
   one and still reports no race has not shown the run race-free: it
   re-raises the first mismatch, or in degraded mode declares each
   diverged interval a hole. *)
let build_race t =
  let keys =
    Array.to_list t.ivs
    |> List.concat_map (fun ivs ->
           Array.to_list ivs
           |> List.filter (may_touch_shared t)
           |> List.map (fun iv -> (iv.L.iv_pid, iv.L.iv_id)))
  in
  submit_all t keys;
  let steps = ref 0 in
  let diverged = ref [] in
  let replay add =
    List.iter
      (fun (pid, iv_id) ->
        add ~pid
          (match interval_outcome ~assemble:false t ~pid ~iv_id with
          | o ->
            t.replays <- t.replays + 1;
            steps := !steps + o.Emulator.steps;
            o.Emulator.events
          | exception (Emulator.Replay_mismatch _ as e) ->
            diverged := (pid, iv_id, e) :: !diverged;
            diverged_events t t.ivs.(pid).(iv_id)))
      keys
  in
  let pd = Pardyn.of_replay (prog t) (Store.Segment.to_log t.src) replay in
  t.replay_steps <- t.replay_steps + !steps;
  let st = Race.detect pd in
  (if st.Race.races = [] then
     match List.rev !diverged with
     | (_, _, e) :: _ when not t.config.degraded -> raise e
     | diverged ->
       List.iter
         (fun (pid, iv_id, e) ->
           ignore
             (declare_hole t ~pid ~iv:t.ivs.(pid).(iv_id) (reason_of_failure e)))
         diverged);
  (pd, st, !steps)

(* A degraded answer may hold holes, so it stays private to the
   request; a clean one is shared per watchdog budget, since a tighter
   budget must see the overrun a fresh build would report. *)
let race t =
  match t.race_answer with
  | Some r -> r
  | None ->
    let r =
      match t.shared with
      | Some f when not t.config.degraded ->
        Fragcache.race f (prog t) t.src
          ~max_replay_steps:t.config.max_replay_steps (fun () -> build_race t)
      | Some _ | None ->
        let pd, st, _ = build_race t in
        (pd, st)
    in
    t.race_answer <- Some r;
    r

let pardyn t = fst (race t)

let content_log t = Store.Segment.to_log t.src

(* The interval a what-if names: [iv_id] of process [pid], or its root
   block when none is given. *)
let what_if_target t ~pid iv_id =
  let ivs =
    if pid >= 0 && pid < Array.length t.ivs then t.ivs.(pid) else [||]
  in
  match iv_id with
  | Some i when i >= 0 && i < Array.length ivs -> Ok ivs.(i)
  | Some i -> Error (Printf.sprintf "process %d has no interval %d" pid i)
  | None -> (
    match Array.find_opt (fun iv -> iv.L.iv_parent = None) ivs with
    | Some iv -> Ok iv
    | None ->
      Error
        (Printf.sprintf "process %d has no interval (the log records %d \
                         process(es))"
           pid (Array.length t.ivs)))

(* A name resolves to the interval's function locals first, then the
   shared globals. *)
let resolve_override p ~fid (name, value) =
  let named (v : P.var) = v.P.vname = name in
  let local (v : P.var) = named v && v.P.vfid = fid in
  match (Array.find_opt local p.P.vars, Array.find_opt named p.P.globals) with
  | Some v, _ | None, Some v -> Ok (v, Runtime.Value.Vint value)
  | None, None ->
    Error
      (Printf.sprintf "no variable '%s' in %s or the globals" name
         p.P.funcs.(fid).P.fname)

let what_if ?iv_id t ~pid ~overrides =
  let ( let* ) = Result.bind in
  let* iv = what_if_target t ~pid iv_id in
  let fid = iv.L.iv_fid in
  let* overrides =
    List.fold_right
      (fun o acc ->
        let* rest = acc in
        let* v = resolve_override (prog t) ~fid o in
        Ok (v :: rest))
      overrides (Ok [])
  in
  (* validation is off, so the replay may leave the interval's window:
     it reads the whole content log, the restored store included *)
  let o =
    Emulator.replay ~max_steps:t.config.max_replay_steps ~overrides
      ~validate:false t.eb (content_log t) ~interval:iv
  in
  t.replay_steps <- t.replay_steps + o.Emulator.steps;
  Ok (iv.L.iv_id, o)

let enclosing_interval t (r : E.eref) =
  L.find_enclosing t.ivs.(r.epid) ~seq:r.eseq

let node_of_event t (r : E.eref) =
  match Dyn_graph.find_ref t.g r with
  | Some n -> Some n
  | None -> (
    match enclosing_interval t r with
    | None -> None
    | Some iv ->
      ignore (build_interval t ~pid:r.epid ~iv_id:iv.L.iv_id);
      Dyn_graph.find_ref t.g r)

let last_event_node t ~pid =
  let ivs = t.ivs.(pid) in
  if Array.length ivs = 0 then None
  else begin
    (* the process halted inside the innermost open interval (greatest
       start among those without a postlog); if every interval closed,
       it ran to completion and the last event is in its root block *)
    let better a b =
      match a with
      | None -> Some b
      | Some a' -> if b.L.iv_seq_start > a'.L.iv_seq_start then Some b else a
    in
    let open_ =
      Array.fold_left
        (fun best iv -> if iv.L.iv_seq_end = None then better best iv else best)
        None ivs
    in
    let last =
      match open_ with
      | Some _ as l -> l
      | None ->
        Array.fold_left
          (fun best iv -> if iv.L.iv_parent = None then better best iv else best)
          None ivs
    in
    match last with
    | None -> None
    | Some iv ->
      let outcome = build_interval t ~pid ~iv_id:iv.L.iv_id in
      let rec last_ref acc = function
        | [] -> acc
        | (seq, _) :: rest -> last_ref (Some seq) rest
      in
      (match last_ref None outcome.Emulator.events with
      | None -> None
      | Some seq -> Dyn_graph.find_ref t.g { E.epid = pid; eseq = seq })
  end

let expand_subgraph t node_id =
  let node = Dyn_graph.node t.g node_id in
  match (node.Dyn_graph.nd_kind, node.Dyn_graph.nd_ref) with
  | Dyn_graph.N_loop _, Some enter_ref -> (
    (* loop e-block: the nested interval starts right after the
       loop-enter event; the fragment's nodes attach to this node *)
    let child_seq = enter_ref.E.eseq + 1 in
    match L.find_enclosing t.ivs.(enter_ref.E.epid) ~seq:child_seq with
    | Some iv
      when iv.L.iv_seq_start = child_seq
           && (match iv.L.iv_block with L.Bloop _ -> true | _ -> false) ->
      if Hashtbl.mem t.outcomes (enter_ref.E.epid, iv.L.iv_id) then None
      else Some (build_interval t ~pid:enter_ref.E.epid ~iv_id:iv.L.iv_id)
    | Some _ | None -> None)
  | Dyn_graph.N_subgraph _, Some call_ref -> (
    (* the nested interval starts right after the call event *)
    let child_seq = call_ref.E.eseq + 1 in
    match
      L.find_enclosing t.ivs.(call_ref.E.epid) ~seq:child_seq
    with
    | Some iv when iv.L.iv_seq_start = child_seq ->
      if Hashtbl.mem t.outcomes (call_ref.E.epid, iv.L.iv_id) then None
      else begin
        let outcome = build_interval t ~pid:call_ref.E.epid ~iv_id:iv.L.iv_id in
        (* stitch: the call node governs the callee's entry, and the
           callee's returned value flows back into the sub-graph node
           (the %0 mapping of §4.2) *)
        (match
           Dyn_graph.find_ref t.g
             { E.epid = call_ref.E.epid; eseq = child_seq }
         with
        | Some entry ->
          Dyn_graph.add_edge t.g ~src:node_id ~dst:entry
            ~kind:Dyn_graph.Control
        | None -> ());
        let return_seq =
          List.fold_left
            (fun acc (seq, ev) ->
              match ev with
              | E.E_stmt { kind = E.K_return _; _ } -> Some seq
              | _ -> acc)
            None outcome.Emulator.events
        in
        (match return_seq with
        | Some seq -> (
          match
            Dyn_graph.find_ref t.g { E.epid = call_ref.E.epid; eseq = seq }
          with
          | Some ret_node ->
            Dyn_graph.add_edge t.g ~src:ret_node ~dst:node_id
              ~kind:(Dyn_graph.Dparam 0)
          | None -> ())
        | None -> ());
        Some outcome
      end
    | Some _ | None -> None)
  | _, _ -> None

(* ------------------------------------------------------------------ *)
(* External (frontier) resolution.                                      *)
(* ------------------------------------------------------------------ *)

(* Interval that the external node's fragment belongs to: the reading
   event right after it in the same process. We recover it from the
   graph: external nodes have no ref, but their successors do. *)
let interval_of_node t node_id =
  let rec find_ref n seen =
    if List.mem n seen then None
    else
      match (Dyn_graph.node t.g n).Dyn_graph.nd_ref with
      | Some r -> Some r
      | None ->
        List.fold_left
          (fun acc (s, _) ->
            match acc with Some _ -> acc | None -> find_ref s (n :: seen))
          None
          (Dyn_graph.succs t.g n)
  in
  match find_ref node_id [] with
  | None -> None
  | Some r -> Option.map (fun iv -> (r, iv)) (enclosing_interval t r)

(* The last node in the (already built) graph writing [vid] within the
   given interval: scan the builder outcome's events. *)
let last_write_node t (iv : L.interval) vid =
  match Hashtbl.find_opt t.outcomes (iv.L.iv_pid, iv.L.iv_id) with
  | None -> None
  | Some outcome ->
    List.fold_left
      (fun acc (seq, ev) ->
        match ev with
        | E.E_stmt { write = Some { var; value }; _ } when var.P.vid = vid ->
          Some (seq, value)
        | _ -> acc)
      None outcome.Emulator.events
    |> Option.map (fun (seq, value) ->
           (Dyn_graph.find_ref t.g { E.epid = iv.L.iv_pid; eseq = seq }, value))

(* The spawn event of a process-root interval, from the proc-start
   sync record just before its prelog (a single-record seek on a paged
   source). *)
let spawner_ref t (iv : L.interval) =
  if iv.L.iv_prelog > 0 then
    match
      Store.Segment.entry t.src ~pid:iv.L.iv_pid ~idx:(iv.L.iv_prelog - 1)
    with
    | L.Sync { data = L.S_proc_start { spawn; _ }; _ } -> spawn
    | _ -> None
    | exception Store.Segment.Unreadable _ when t.config.degraded ->
      (* the sync record sits in a damaged page: the spawn link is lost,
         which degraded resolution treats like any other missing writer *)
      None
  else None

(* Resolve a parameter external: the defining event is the caller's
   call (parent interval) or the spawner's spawn. *)
let resolve_param t node_id (iv : L.interval) =
  let pid = iv.L.iv_pid in
  let link writer =
    let var =
      match (Dyn_graph.node t.g node_id).Dyn_graph.nd_kind with
      | Dyn_graph.N_external v -> v
      | _ -> assert false
    in
    Dyn_graph.add_edge t.g ~src:writer ~dst:node_id ~kind:(Dyn_graph.Data var);
    Dyn_graph.resolve_external t.g node_id;
    Some writer
  in
  match iv.L.iv_parent with
  | Some parent_id ->
    ignore (build_interval t ~pid ~iv_id:parent_id);
    (* the call event immediately precedes this interval's E_enter *)
    let call_ref = { E.epid = pid; eseq = iv.L.iv_seq_start - 1 } in
    (match Dyn_graph.find_ref t.g call_ref with
    | Some writer -> link writer
    | None -> None)
  | None -> (
    (* process root: the spawner wrote the parameter *)
    match spawner_ref t iv with
    | None -> None
    | Some r -> (
      match node_of_event t r with
      | Some writer -> link writer
      | None -> None))

(* Intervals that may have produced the value of shared [vid] read at
   [read_step]: blocks whose function may define it (the DEFINED sets,
   or a loop block's post variables) that started before the value was
   snapshot — most recent first, the order resolution tries them in. *)
let shared_write_candidates t ~vid ~read_step ~(reading_iv : L.interval) =
  let candidates = ref [] in
  Array.iteri
    (fun pid ivs ->
      Array.iter
        (fun (iv : L.interval) ->
          let same = pid = reading_iv.L.iv_pid && iv.L.iv_id = reading_iv.L.iv_id in
          let may_define =
            match iv.L.iv_block with
            | L.Bfunc fid ->
              Analysis.Varset.mem vid t.eb.Analysis.Eblock.defined.(fid)
            | L.Bloop lsid -> (
              match Analysis.Eblock.loop_block_vars t.eb ~sid:lsid with
              | Some (_, post) ->
                List.exists (fun (v : P.var) -> v.vid = vid) post
              | None -> false)
          in
          if
            (not same) && may_define
            && Store.Segment.interval_step t.src iv <= read_step
          then candidates := iv :: !candidates)
        ivs)
    t.ivs;
  let step = Store.Segment.interval_step t.src in
  List.sort (fun a b -> Int.compare (step b) (step a)) !candidates

(* Resolve a shared-variable external: emulate candidate intervals
   (recent first, among those whose function may define the variable)
   until a fragment's last write matches the observed value. *)
let resolve_shared t node_id var ~reader (reading_iv : L.interval) =
  let vid = var.P.vid in
  let observed = (Dyn_graph.node t.g node_id).Dyn_graph.nd_value in
  let read_step =
    Store.Segment.snapshot_step t.src ~pid:reading_iv.L.iv_pid
      ~reader_seq:reader.Runtime.Event.eseq
  in
  let candidates = shared_write_candidates t ~vid ~read_step ~reading_iv in
  let rec try_candidates = function
    | [] -> None
    | iv :: rest -> (
      ignore (build_interval t ~pid:iv.L.iv_pid ~iv_id:iv.L.iv_id);
      match last_write_node t iv vid with
      | Some (Some writer, value)
        when match observed with
             | None -> true
             | Some o -> Runtime.Value.equal o value -> (
        (* only accept writers not ordered after the read (race-free
           executions have a unique such maximal writer) *)
        Dyn_graph.add_edge t.g ~src:writer ~dst:node_id
          ~kind:(Dyn_graph.Data var);
        Dyn_graph.resolve_external t.g node_id;
        match observed with _ -> Some writer)
      | Some _ | None -> try_candidates rest)
  in
  try_candidates candidates

let resolve_external t node_id =
  let node = Dyn_graph.node t.g node_id in
  match node.Dyn_graph.nd_kind with
  | Dyn_graph.N_external var -> (
    match interval_of_node t node_id with
    | None -> None
    | Some (reader, iv) ->
      if P.is_global var then resolve_shared t node_id var ~reader iv
      else resolve_param t node_id iv)
  | _ -> None

let why t node_id =
  (* build the partner fragment of a pending sync link into this node *)
  (match IT.find_opt t.by_dst node_id with
  | Some l -> ignore (node_of_event t l.l_src)
  | None -> ());
  t.links_desc <- not t.links_desc;
  (* resolve external predecessors *)
  List.iter
    (fun (p, _) ->
      if Dyn_graph.is_external t.g p then ignore (resolve_external t p))
    (Dyn_graph.preds t.g node_id);
  Dyn_graph.preds t.g node_id

let stats (t : t) =
  {
    replays = t.replays;
    replay_steps = t.replay_steps;
    intervals_total = Array.fold_left (fun a ivs -> a + Array.length ivs) 0 t.ivs;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    holes = List.length t.holes_rev;
    retried = t.retried;
  }
