module P = Lang.Prog
module E = Runtime.Event
module L = Trace.Log

(* Where the entries come from: a whole in-memory log, or an open
   segment file that is decoded interval by interval as queries touch
   it (the demand-paged debugging phase). *)
type source = S_mem of L.t | S_paged of Store.Segment.reader

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

(* A sync link whose source event has no node yet. [l_pos] fixes its
   place in the order {!prefetch} visits pending links: every assembly
   and every [why] reverse that order, and the links an assembly adds
   are visited last, latest event first. *)
type link = { l_src : E.eref; l_dst : int; l_pos : int }

type t = {
  eb : Analysis.Eblock.t;
  bp : Builder.program;
  src : source;
  pd : Pardyn.t Lazy.t;  (* race queries force a full decode *)
  g : Dyn_graph.t;
  ivs : L.interval array array;  (* per pid *)
  outcomes : (int * int, Emulator.outcome) Hashtbl.t;
      (* intervals whose fragment is in the graph *)
  mutable pool : Exec.Pool.t option;
      (* None = the bit-identical serial path; {!detach_pool} drops a
         shut-down pool so later queries fall back to serial replay *)
  shared : Fragcache.t option;
      (* cross-controller fragment cache (one per log identity in the
         `ppd serve` registry); clean outcomes are published here and
         consulted before any replay *)
  src_tier : string;
      (* tier of the *original* source ("content"/"order") — the shared
         cache key prefix, so outcomes derived from a reconstructed
         order log never mix with directly-recorded ones *)
  frag_lock : Mutex.t;
  frags : (int * int, Emulator.outcome) Hashtbl.t;
      (* raw replay outcomes produced by pool workers (batch or
         speculative), not yet assembled into the graph; every access
         goes through [frag_lock] *)
  inflight : (int * int, Emulator.outcome Exec.Pool.future) Hashtbl.t;
      (* submitted to the pool, result not yet collected; main-domain
         state, so no lock *)
  by_src : (E.eref, link list) Hashtbl.t;
      (* pending sync links by source event: each node an assembly adds
         is looked up here, so a link resolves once its source exists *)
  by_dst : (int, link) Hashtbl.t;
      (* the same links by target node; a node has at most one sync
         source *)
  mutable link_lo : int;
  mutable link_hi : int;
  mutable links_desc : bool;
  mutable replays : int;
  mutable replay_steps : int;
  mutable spec_steps : int;
      (* replay work charged against the watchdog budget that
         [replay_steps] does not see: steps burned by speculative
         prefetch replays (awaited in {!prefetch}) and by overrun
         attempts (which never assemble). [prefetch] stops submitting
         once [replay_steps + spec_steps] reaches the budget, so a
         [--degraded] run cannot keep burning budget-sized replays
         silently. *)
  mutable prefetched : int;
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
  prefetched : int;
  cache_hits : int;
  cache_misses : int;
  holes : int;
  retried : int;
}

(* Debugging-phase counters (no-ops until [Obs.enable]). A cache
   "lookup" is one [build_interval] assembly request; it "hits" when
   the outcome already exists (assembled, speculative fragment, or in
   flight on the pool) and "misses" when a serial replay is forced —
   exactly one of the two per lookup, so hits + misses = lookups. *)
let c_replays = Obs.counter "ppd.controller.replays"

let c_replay_steps = Obs.counter "ppd.controller.replay_steps"

let c_prefetched = Obs.counter "ppd.controller.prefetched"

let c_lookups = Obs.counter "ppd.controller.cache.lookups"

let c_hits = Obs.counter "ppd.controller.cache.hits"

let c_misses = Obs.counter "ppd.controller.cache.misses"

let c_holes = Obs.counter "ctl.holes"

let c_retries = Obs.counter "ctl.retries"

let make ?pool ?shared ?(config = default_config) eb src =
  (* An order-tier log carries no value snapshots, so nothing here can
     emulate from it directly. Reconstruct the equivalent content log
     up front (DESIGN §16) and debug that: the reconstruction is
     validated against the recorded sync order, so every downstream
     answer is byte-identical to debugging a content recording of the
     same execution. *)
  let src_tier =
    L.tier_name
      (match src with
      | S_mem log -> log.L.tier
      | S_paged r -> Store.Segment.tier r)
  in
  let src =
    match src with
    | S_mem log when log.L.tier <> L.T_content ->
      S_mem (Reconstruct.reconstruct eb log)
    | S_paged r when Store.Segment.tier r <> L.T_content ->
      S_mem (Reconstruct.reconstruct eb (Store.Segment.to_log r))
    | src -> src
  in
  let prog = eb.Analysis.Eblock.prog in
  let stmt_fid sid = prog.P.stmt_fid.(sid) in
  let ivs, pd =
    match src with
    | S_mem log ->
      ( Array.init log.L.nprocs (fun pid -> L.intervals ~stmt_fid log ~pid),
        lazy (Pardyn.of_log prog log) )
    | S_paged r ->
      ( Array.init (Store.Segment.nprocs r) (fun pid ->
            Store.Segment.intervals r ~stmt_fid ~pid),
        lazy (Pardyn.of_log prog (Store.Segment.to_log r)) )
  in
  {
    eb;
    bp =
      (match shared with
      | Some f -> Fragcache.program f prog
      | None -> Builder.program prog);
    src;
    pd;
    g = Dyn_graph.create ();
    ivs;
    outcomes = Hashtbl.create 16;
    pool;
    shared;
    src_tier;
    frag_lock = Mutex.create ();
    frags = Hashtbl.create 16;
    inflight = Hashtbl.create 16;
    by_src = Hashtbl.create 16;
    by_dst = Hashtbl.create 16;
    link_lo = 0;
    link_hi = 0;
    links_desc = false;
    replays = 0;
    replay_steps = 0;
    spec_steps = 0;
    prefetched = 0;
    cache_hits = 0;
    cache_misses = 0;
    config;
    holes_rev = [];
    retried = 0;
  }

let start ?pool ?shared ?config eb log = make ?pool ?shared ?config eb (S_mem log)

let start_paged ?pool ?shared ?config eb reader =
  make ?pool ?shared ?config eb (S_paged reader)

(* Forget the pool: later queries replay serially on the calling
   domain. In-flight futures stay consumable (a shut-down pool has
   drained every queued task, so they are already resolved); only new
   submissions stop. This is what lets a {!Session} answer queries
   after its pool was shut down instead of raising. *)
let detach_pool t = t.pool <- None

(* The log slice an interval's emulation touches: entries
   [iv_prelog - 1 .. iv_postlog] (the preceding sync record through the
   closing postlog, or the process's end for open intervals). A paged
   source decodes exactly that window. *)
let interval_log t (iv : L.interval) =
  match t.src with
  | S_mem log -> log
  | S_paged r ->
    let pid = iv.L.iv_pid in
    let hi =
      match iv.L.iv_postlog with
      | Some p -> p
      | None -> Store.Segment.pid_entry_count r ~pid - 1
    in
    Store.Segment.window r ~pid ~lo:(iv.L.iv_prelog - 1) ~hi

let graph t = t.g

let prog t = t.eb.Analysis.Eblock.prog

let pardyn t = Lazy.force t.pd

let intervals t ~pid = t.ivs.(pid)

(* Links in the order [prefetch] visits them. *)
let in_visit_order t links =
  let asc a b = Int.compare a.l_pos b.l_pos in
  List.sort (if t.links_desc then fun a b -> asc b a else asc) links

(* After an assembly added nodes [first ..]: connect the pending links
   whose source is among them, then file the fragment's own unresolved
   [links] (in event order). *)
let link_fragment t ~first links =
  if Hashtbl.length t.by_src > 0 then
    for id = first to Dyn_graph.nnodes t.g - 1 do
      match (Dyn_graph.node t.g id).Dyn_graph.nd_ref with
      | None -> ()
      | Some r -> (
        match Hashtbl.find_opt t.by_src r with
        | None -> ()
        | Some ls ->
          Hashtbl.remove t.by_src r;
          let src = Option.get (Dyn_graph.find_ref t.g r) in
          List.iter
            (fun l ->
              Hashtbl.remove t.by_dst l.l_dst;
              Dyn_graph.add_edge t.g ~src ~dst:l.l_dst ~kind:Dyn_graph.Sync)
            (in_visit_order t ls))
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
      Hashtbl.replace t.by_dst dst l;
      Hashtbl.replace t.by_src src
        (l :: Option.value ~default:[] (Hashtbl.find_opt t.by_src src)))
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

(* Fetch (and drop) a worker-produced fragment, if one landed. *)
let take_frag t key =
  Mutex.lock t.frag_lock;
  let o = Hashtbl.find_opt t.frags key in
  if o <> None then Hashtbl.remove t.frags key;
  Mutex.unlock t.frag_lock;
  o

(* Speculatively replay [iv] on the pool; the raw outcome lands in the
   lock-protected fragment cache. Returns whether a task was submitted
   (false without a pool, or when the interval is already assembled,
   cached, or in flight). *)
let submit_replay t (iv : L.interval) =
  match t.pool with
  | None -> false
  | Some pool ->
    let key = (iv.L.iv_pid, iv.L.iv_id) in
    let cached =
      Mutex.lock t.frag_lock;
      let c = Hashtbl.mem t.frags key in
      Mutex.unlock t.frag_lock;
      c
    in
    if
      Hashtbl.mem t.outcomes key
      || Hashtbl.mem t.inflight key
      || cached || shared_mem t key
    then false
    else begin
      let fut =
        Exec.Pool.submit pool (fun () ->
            let o = replay_outcome t iv in
            Mutex.lock t.frag_lock;
            Hashtbl.replace t.frags key o;
            Mutex.unlock t.frag_lock;
            o)
      in
      Hashtbl.replace t.inflight key fut;
      true
    end

let pid_stop t pid =
  match t.src with
  | S_mem log -> log.L.stops.(pid)
  | S_paged r -> (Store.Segment.stops r).(pid)

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
    | None -> max lo (pid_stop t pid - 1)
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
  | Trace.Log_io.Unreadable { reason; _ } ->
    Printf.sprintf "log page damaged: %s" reason
  | Emulator.Replay_mismatch m -> Printf.sprintf "replay diverged: %s" m
  | e -> Printexc.to_string e

let build_interval (t : t) ~pid ~iv_id =
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
      match take_frag t key with
      | Some o ->
        hit ();
        o
      | None -> (
        match Hashtbl.find_opt t.inflight key with
        | Some fut ->
          hit ();
          let o = Exec.Pool.await fut in
          ignore (take_frag t key);
          o
        | None -> (
          match shared_find t key with
          | Some o ->
            hit ();
            o
          | None ->
            Obs.incr c_misses;
            t.cache_misses <- t.cache_misses + 1;
            replay_outcome t iv))
    in
    let is_hole = ref false in
    let hole reason =
      is_hole := true;
      declare_hole t ~pid ~iv reason
    in
    let outcome =
      match with_retries t iv acquire with
      | o ->
        if o.Emulator.overrun then begin
          (* the attempt burned its whole budget before the watchdog
             tripped; charge that work so eager speculation cannot keep
             launching budget-sized replays after the cap is blown *)
          t.spec_steps <- t.spec_steps + o.Emulator.steps;
          if t.config.degraded then hole "replay step budget exhausted"
          else
            raise
              (Replay_overrun { pid; iv_id; budget = t.config.max_replay_steps })
        end
        else o
      | exception
          ((Fault.Injected _ | Trace.Log_io.Unreadable _
           | Emulator.Replay_mismatch _) as e)
        when t.config.degraded ->
        hole (reason_of_failure e)
    in
    Hashtbl.remove t.inflight key;
    if !is_hole then begin
      (* a hole: nothing to assemble, and it does not count as a replay *)
      Hashtbl.replace t.outcomes key outcome;
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
      let links = Builder.build_from_outcome t.bp t.g ~interval:iv outcome in
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

(* Batch-emulate a set of intervals: submit every missing one to the
   pool, then assemble in list order on this domain. Without a pool
   this degenerates to the serial loop and builds the same graph. *)
let build_intervals_par t keys =
  (match t.pool with
  | None -> ()
  | Some _ ->
    List.iter
      (fun (pid, iv_id) ->
        if not (Hashtbl.mem t.outcomes (pid, iv_id)) then
          ignore (submit_replay t t.ivs.(pid).(iv_id)))
      keys);
  List.iter (fun (pid, iv_id) -> ignore (build_interval t ~pid ~iv_id)) keys

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

let prelog_step t (iv : L.interval) =
  match t.src with
  | S_paged r -> Store.Segment.interval_step r iv
  | S_mem log -> (
    match log.L.entries.(iv.L.iv_pid).(iv.L.iv_prelog) with
    | L.Prelog { step_at; _ } -> step_at
    | _ -> 0)

(* The moment the value read at [reader_seq] was snapshot: the latest
   prelog or sync-unit prelog of this process at or before the reading
   event. Paged sources answer from the footer's snapshot table. *)
let snapshot_step t ~pid ~reader_seq =
  match t.src with
  | S_paged r -> Store.Segment.snapshot_step r ~pid ~reader_seq
  | S_mem log ->
    Array.fold_left
      (fun acc e ->
        match e with
        | L.Prelog { seq_at; step_at; _ } | L.Sync_prelog { seq_at; step_at; _ }
          when seq_at <= reader_seq ->
          max acc step_at
        | _ -> acc)
      0
      log.L.entries.(pid)

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
      (match t.src with
      | S_mem log -> log.L.entries.(iv.L.iv_pid).(iv.L.iv_prelog - 1)
      | S_paged r ->
        Store.Segment.entry r ~pid:iv.L.iv_pid ~idx:(iv.L.iv_prelog - 1))
    with
    | L.Sync { data = L.S_proc_start { spawn; _ }; _ } -> spawn
    | _ -> None
    | exception Trace.Log_io.Unreadable _ when t.config.degraded ->
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
          if (not same) && may_define && prelog_step t iv <= read_step then
            candidates := iv :: !candidates)
        ivs)
    t.ivs;
  List.sort
    (fun a b -> Int.compare (prelog_step t b) (prelog_step t a))
    !candidates

(* Resolve a shared-variable external: emulate candidate intervals
   (recent first, among those whose function may define the variable)
   until a fragment's last write matches the observed value. *)
let resolve_shared t node_id var ~reader (reading_iv : L.interval) =
  let vid = var.P.vid in
  let observed = (Dyn_graph.node t.g node_id).Dyn_graph.nd_value in
  let read_step =
    snapshot_step t ~pid:reading_iv.L.iv_pid ~reader_seq:reader.Runtime.Event.eseq
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

(* Eager mode: after a query pins an interval, speculatively emulate
   its dependence frontier on idle domains — the source intervals of
   pending sync links (the partner fragments a [why] on a sync node
   will need), and for each unresolved external the intervals its
   resolution would emulate: parent or spawner for parameters, the
   DEFINED-set shared-write candidates (§6.3) for globals, most recent
   first. Purely speculative: only raw outcomes are produced, into the
   fragment cache; the graph is untouched, so query results stay
   deterministic. Returns the number of replays submitted. *)
let prefetch ?(max_candidates = 8) t =
  match t.pool with
  | None -> 0
  | Some _ ->
    let n = ref 0 in
    let submitted = ref [] in
    (* Speculative replays are charged against the same watchdog budget
       as demand replays (PPD060): once the charged account — assembled
       work plus earlier speculation and overrun attempts — reaches
       [max_replay_steps], eager mode submits nothing more. Without the
       charge, a [--degraded] run with a tight budget would keep
       launching budget-sized speculative replays, silently exceeding
       the cap it was asked to respect. *)
    let spec iv =
      if
        t.replay_steps + t.spec_steps < t.config.max_replay_steps
        && submit_replay t iv
      then begin
        incr n;
        submitted := (iv.L.iv_pid, iv.L.iv_id) :: !submitted
      end
    in
    List.iter
      (fun l ->
        match enclosing_interval t l.l_src with
        | Some iv -> spec iv
        | None -> ())
      (in_visit_order t (Hashtbl.fold (fun _ l acc -> l :: acc) t.by_dst []));
    List.iter
      (fun (node_id, (var : P.var)) ->
        match interval_of_node t node_id with
        | None -> ()
        | Some (reader, iv) ->
          if P.is_global var then begin
            let read_step =
              snapshot_step t ~pid:iv.L.iv_pid ~reader_seq:reader.E.eseq
            in
            let cands =
              shared_write_candidates t ~vid:var.P.vid ~read_step
                ~reading_iv:iv
            in
            List.iteri (fun i c -> if i < max_candidates then spec c) cands
          end
          else
            (match iv.L.iv_parent with
            | Some parent_id -> spec t.ivs.(iv.L.iv_pid).(parent_id)
            | None -> (
              match spawner_ref t iv with
              | Some r -> (
                match enclosing_interval t r with
                | Some siv -> spec siv
                | None -> ())
              | None -> ())))
      (Dyn_graph.externals t.g);
    (* Collect and charge the speculative work before returning, in
       submission order, so the account (and thus later submission
       decisions) is identical across [-jN]. A failed task charges
       nothing here — its exception is still delivered, with retries,
       when the interval is assembled. *)
    List.iter
      (fun key ->
        match Hashtbl.find_opt t.inflight key with
        | None -> ()
        | Some fut -> (
          match Exec.Pool.await fut with
          | o -> t.spec_steps <- t.spec_steps + o.Emulator.steps
          | exception _ -> ()))
      (List.rev !submitted);
    t.prefetched <- t.prefetched + !n;
    Obs.add c_prefetched !n;
    !n

let why t node_id =
  (* build the partner fragment of a pending sync link into this node *)
  (match Hashtbl.find_opt t.by_dst node_id with
  | Some l -> ignore (node_of_event t l.l_src)
  | None -> ());
  t.links_desc <- not t.links_desc;
  (* resolve external predecessors *)
  List.iter
    (fun (p, _) ->
      match (Dyn_graph.node t.g p).Dyn_graph.nd_kind with
      | Dyn_graph.N_external _
        when List.exists (fun (i, _) -> i = p) (Dyn_graph.externals t.g) ->
        ignore (resolve_external t p)
      | _ -> ())
    (Dyn_graph.preds t.g node_id);
  Dyn_graph.preds t.g node_id

let stats (t : t) =
  {
    replays = t.replays;
    replay_steps = t.replay_steps;
    intervals_total = Array.fold_left (fun a ivs -> a + Array.length ivs) 0 t.ivs;
    prefetched = t.prefetched;
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    holes = List.length t.holes_rev;
    retried = t.retried;
  }
