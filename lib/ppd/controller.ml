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

(* The per-request state over an {!Assembly}: the graph is the
   assembly's, private or borrowed from the registry entry; what this
   request has seen of it is [touched] (per interval: 0 not yet, 1
   assembled, 2 a hole), [expanded] and [settled], and every answer the
   request gives reads the graph through them, so a borrowed graph
   answers as a private one assembled by this request alone would
   (DESIGN §14.6). *)
type t = {
  eb : Analysis.Eblock.t;
  src : Store.Segment.reader;
      (* where the entries come from: an open segment decoded interval
         by interval as queries touch it (the demand-paged debugging
         phase), or a log already in memory *)
  mutable asm : Assembly.t option;  (* a private one is made on first use *)
  mutable borrowed : bool;  (* [asm] is the registry entry's *)
  make_asm : unit -> Assembly.t;
  ivs : L.interval array array;  (* per pid *)
  base : int array;  (* per pid: the index of its interval 0 *)
  touched : Bytes.t;  (* by interval index *)
  expanded : unit IT.t;  (* sub-graph nodes this request expanded *)
  settled : unit IT.t;  (* externals this request resolved *)
  mutable trail : int list option;
      (* the intervals a resolution in progress visits, latest first *)
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
   "lookup" is one interval request of the walk; it "hits" when the
   interval is already there (assembled, submitted to the pool, or in
   the shared cache or graph) and "misses" when a serial replay is
   forced — exactly one of the two per lookup, so hits + misses =
   lookups. *)
let c_replays = Obs.counter "ppd.controller.replays"

let c_replay_steps = Obs.counter "ppd.controller.replay_steps"

let c_lookups = Obs.counter "ppd.controller.cache.lookups"

let c_hits = Obs.counter "ppd.controller.cache.hits"

let c_misses = Obs.counter "ppd.controller.cache.misses"

let c_holes = Obs.counter "ctl.holes"

let c_retries = Obs.counter "ctl.retries"

(* An order-tier log carries no value snapshots, so nothing here can
   emulate from it directly. Debug the equivalent content log instead
   (DESIGN §16): the reconstruction is validated against the recorded
   sync order, so every downstream answer is byte-identical to
   debugging a content recording of the same execution. A shared cache
   reconstructs once for every controller it serves. *)
let content_source ?shared eb src =
  if Store.Segment.tier src = L.T_content then src
  else
    match shared with
    | Some f -> Fragcache.reconstruction f eb src
    | None -> fst (Reconstruct.reader eb src)

let make ?pool ?shared ?(config = default_config) eb src =
  let tier = Store.Segment.tier src in
  let src = content_source ?shared eb src in
  let prog = eb.Analysis.Eblock.prog in
  let stmt_fid sid = prog.P.stmt_fid.(sid) in
  let ivs =
    Array.init (Store.Segment.nprocs src) (fun pid ->
        Store.Segment.intervals src ~stmt_fid ~pid)
  in
  let base = Array.make (Array.length ivs + 1) 0 in
  Array.iteri (fun pid a -> base.(pid + 1) <- base.(pid) + Array.length a) ivs;
  let make_asm () =
    let bp =
      match shared with
      | Some f -> Fragcache.program f prog
      | None -> Builder.program prog
    in
    Assembly.create bp ~intervals:base.(Array.length ivs)
      ~nprocs:(Array.length ivs)
  in
  {
    eb;
    src;
    asm = None;
    borrowed = false;
    make_asm;
    ivs;
    base;
    touched = Bytes.make base.(Array.length ivs) '\000';
    expanded = IT.create 8;
    settled = IT.create 8;
    trail = None;
    pool;
    shared;
    src_tier = L.tier_name tier;
    inflight = Hashtbl.create 16;
    replays = 0;
    replay_steps = 0;
    cache_hits = 0;
    cache_misses = 0;
    config;
    holes_rev = [];
    retried = 0;
  }

let start_paged ?pool ?shared ?config eb src = make ?pool ?shared ?config eb src

let start ?pool ?shared ?config eb log =
  start_paged ?pool ?shared ?config eb (Store.Segment.of_log log)

let borrow ?pool ?config shared eb src f =
  let t = make ?pool ~shared ?config eb src in
  let a = Fragcache.assembly shared ~eb ~src:t.src t.make_asm in
  Assembly.locked a (fun () ->
      t.asm <- Some a;
      t.borrowed <- true;
      Fun.protect ~finally:(fun () -> Fragcache.grown shared a) (fun () -> f t))

let asm t =
  match t.asm with
  | Some a -> a
  | None ->
    let a = t.make_asm () in
    t.asm <- Some a;
    a

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

let graph t = Assembly.graph (asm t)

let prog t = t.eb.Analysis.Eblock.prog

let intervals t ~pid = t.ivs.(pid)

let index t ~pid ~iv_id = t.base.(pid) + iv_id

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

let publish t (pid, iv_id) o =
  match t.shared with
  | Some sh -> Fragcache.publish sh (t.src_tier, pid, iv_id) o
  | None -> ()

(* Replay [iv] on the pool, unless this request has it, the graph holds
   it, or it is in flight or in the shared cache; {!visit} collects the
   future. *)
let submit_replay t pool (iv : L.interval) =
  let pid = iv.L.iv_pid and iv_id = iv.L.iv_id in
  let i = index t ~pid ~iv_id in
  if
    not
      (Bytes.get t.touched i <> '\000'
      || (match t.asm with Some a -> Assembly.assembled a i | None -> false)
      || Hashtbl.mem t.inflight (pid, iv_id)
      || shared_mem t (pid, iv_id))
  then
    Hashtbl.replace t.inflight (pid, iv_id)
      (Exec.Pool.submit pool (fun () -> replay_outcome t iv))

(* Degraded mode's answer to a damaged or unreplayable interval: an
   explicit hole node in the graph (flowback annotates it instead of
   raising), recorded in assembly order on the querying domain, so
   -jN output stays identical to -j1. A degraded request's graph is
   private, so no hole reaches a graph another request reads. *)
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
    (Dyn_graph.add_node (graph t) ~pid
       ~kind:(Dyn_graph.N_hole { hole_lo = lo; hole_hi = hi })
       ~label ());
  t.holes_rev <-
    { h_pid = pid; h_iv_id = iv.L.iv_id; h_seq_lo = lo; h_seq_hi = hi;
      h_reason = reason }
    :: t.holes_rev;
  Bytes.set t.touched (index t ~pid ~iv_id:iv.L.iv_id) '\002';
  Obs.incr c_holes

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

let hit (t : t) =
  Obs.incr c_hits;
  t.cache_hits <- t.cache_hits + 1

(* An interval's outcome through the pool, the shared cache, the
   retries and the watchdog, or [None] when degraded mode made it a
   hole. To race detection ([evidence]) a divergence is evidence, not
   damage: it propagates in degraded mode too. *)
let replayed ~evidence t ~pid ~iv_id =
  let key = (pid, iv_id) in
  let iv = t.ivs.(pid).(iv_id) in
  let acquire () =
    match Hashtbl.find_opt t.inflight key with
    | Some fut ->
      hit t;
      Exec.Pool.await fut
    | None -> (
      match shared_find t key with
      | Some o ->
        hit t;
        o
      | None ->
        Obs.incr c_misses;
        t.cache_misses <- t.cache_misses + 1;
        replay_outcome t iv)
  in
  let hole reason =
    declare_hole t ~pid ~iv reason;
    None
  in
  let r =
    match with_retries t iv acquire with
    | o ->
      if not o.Emulator.overrun then Some o
      else if t.config.degraded then hole "replay step budget exhausted"
      else
        raise
          (Replay_overrun { pid; iv_id; budget = t.config.max_replay_steps })
    | exception ((Fault.Injected _ | Store.Segment.Unreadable _) as e)
      when t.config.degraded ->
      hole (reason_of_failure e)
    | exception (Emulator.Replay_mismatch _ as e)
      when t.config.degraded && not evidence ->
      hole (reason_of_failure e)
  in
  Hashtbl.remove t.inflight key;
  r

(* An interval counted as this request's, like an assembly. *)
let count (t : t) i steps =
  Bytes.set t.touched i '\001';
  t.replays <- t.replays + 1;
  t.replay_steps <- t.replay_steps + steps;
  Obs.incr c_replays;
  Obs.add c_replay_steps steps

(* Make interval [(pid, iv_id)] this request's: the one rule by which
   every read of the graph is answered as a private graph would answer
   it (DESIGN §14.6). A [full] visit is one interval lookup, as
   assembling on demand always was: the deadline is checked (the e-block
   boundary is the deadline propagation point, so a query that expires
   mid-flowback stops before the next replay), then the interval is
   this request's already (a hit), or the graph holds it (a hit, under
   this request's watchdog budget), or it is replayed and assembled
   here. A visit that is not [full] looks up only an interval the
   request lacks or holds as a hole. A resolution in progress records
   every visit. With [evidence] a replay's divergence propagates, also
   in degraded mode ({!race}). *)
let visit ?(evidence = false) t ~full ~pid ~iv_id =
  let i = index t ~pid ~iv_id in
  (match t.trail with
  | Some l -> t.trail <- Some ((if full then i else -i - 1) :: l)
  | None -> ());
  let mine = Bytes.get t.touched i in
  if full || mine <> '\001' then begin
    Resil.Deadline.check t.config.deadline;
    Obs.incr c_lookups;
    let a = asm t in
    if mine <> '\000' then hit t
    else if Assembly.assembled a i then begin
      let steps = Assembly.steps a i in
      if steps > t.config.max_replay_steps then
        raise
          (Replay_overrun { pid; iv_id; budget = t.config.max_replay_steps });
      hit t;
      Option.iter Fragcache.note_hit t.shared;
      count t i steps
    end
    else
      match replayed ~evidence t ~pid ~iv_id with
      | None -> ()
      | Some o ->
        (* Graph assembly always happens here, on the querying domain,
           in query order: replay never reads the graph, so feeding a
           worker-produced outcome builds the same fragment a serial
           replay would, and parallel and serial runs yield identical
           graphs. *)
        Assembly.add a ~interval:t.ivs.(pid).(iv_id) i o;
        count t i o.Emulator.steps;
        (* publish clean outcomes for sibling sessions on the same log
           ([Fragcache.publish] drops faulted/overrun ones itself); in
           the entry's own graph the fragment stands for the outcome *)
        if not t.borrowed then publish t (pid, iv_id) o
  end

let build_interval t ~pid ~iv_id = visit t ~full:true ~pid ~iv_id

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
  List.iter (fun (pid, iv_id) -> build_interval t ~pid ~iv_id) keys

(* The accesses a diverged interval replayed before its mismatch. The
   interval is not assembled, and its outcome is not cached. *)
let diverged_accesses t (iv : L.interval) =
  let pid = iv.L.iv_pid in
  let acc = ref [] in
  (try
     ignore
       (Emulator.replay
          ~on_event:(fun ~seq ev ->
            Option.iter
              (fun a -> acc := a :: !acc)
              (Pardyn.access_of_event ~pid ~seq ev))
          ~max_steps:t.config.max_replay_steps t.eb (interval_log t iv)
          ~interval:iv)
   with Emulator.Replay_mismatch _ -> ());
  !acc

(* Whether an interval's replay can show a shared access. A function
   block's USED and DEFINED sets (§5.1) cover every variable it and its
   inlined callees may read or write, so a block naming no shared
   variable adds nothing to the race sets and is not visited for them.
   Loop blocks always are. *)
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

let whole_log ?hold t =
  match t.shared with
  | Some f -> Fragcache.content_log ?hold f t.src
  | None -> Store.Segment.to_log t.src

let content_log t = whole_log t

(* Visit every interval that may touch a shared variable, as flowback
   visits what it reads (caches, retries, deadline, watchdog), so
   each is assembled once into the graph; then the parallel dynamic
   graph over the assembled intervals' accesses, its race stats, and
   the largest replay it read. A diverged replay is evidence of a race,
   in degraded mode too: it is not assembled and gives the accesses it
   replayed before its mismatch, and a tighter budget could have
   stopped it first, so it counts as this build's whole budget. A build
   that saw one and still reports no race has not shown the run
   race-free: it re-raises the first mismatch, or in degraded mode
   declares each diverged interval a hole. *)
let build_race t =
  let keys =
    Array.to_list t.ivs
    |> List.concat_map (fun ivs ->
           Array.to_list ivs
           |> List.filter (may_touch_shared t)
           |> List.map (fun iv -> (iv.L.iv_pid, iv.L.iv_id)))
  in
  let a = asm t in
  let accesses = Array.make (Array.length t.ivs) [] in
  let biggest = ref 0 and diverged = ref [] in
  List.iter
    (fun (pid, iv_id) ->
      let i = index t ~pid ~iv_id in
      let got =
        match visit ~evidence:true t ~full:true ~pid ~iv_id with
        | () when Bytes.get t.touched i = '\001' ->
          biggest := max !biggest (Assembly.steps a i);
          Assembly.accesses a i
        | () -> [] (* a hole *)
        | exception (Emulator.Replay_mismatch _ as e) ->
          diverged := (pid, iv_id, e) :: !diverged;
          biggest := max !biggest t.config.max_replay_steps;
          diverged_accesses t t.ivs.(pid).(iv_id)
      in
      accesses.(pid) <- List.rev_append got accesses.(pid))
    keys;
  (* built once per graph: the content log is read, not kept for it *)
  let log = whole_log ~hold:false t in
  let pd = Pardyn.of_accesses (prog t) log (fun ~pid -> accesses.(pid)) in
  let st = Race.detect pd in
  (if st.Race.races = [] then
     match List.rev !diverged with
     | (_, _, e) :: _ when not t.config.degraded -> raise e
     | diverged ->
       List.iter
         (fun (pid, iv_id, e) ->
           declare_hole t ~pid ~iv:t.ivs.(pid).(iv_id) (reason_of_failure e))
         diverged);
  (pd, st, !biggest)

(* The graph's race answer, built on first use; a request whose budget
   is below the largest replay the answer read builds it again, and so
   meets the overrun a fresh build would report. *)
let race t =
  let a = asm t in
  match Assembly.race a with
  | Some (pd, st, biggest) when biggest <= t.config.max_replay_steps -> (pd, st)
  | Some _ | None ->
    let pd, st, biggest = Obs.phase "race-graph" (fun () -> build_race t) in
    Assembly.set_race a (pd, st, biggest);
    (pd, st)

let pardyn t = fst (race t)

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

(* A request that has an event's node has its interval; one that lacks
   the node looks the interval up, which assembles it. *)
let node_of_event t (r : E.eref) =
  match enclosing_interval t r with
  | None -> Dyn_graph.find_ref (graph t) r
  | Some iv ->
    let found = Dyn_graph.find_ref (graph t) r <> None in
    visit t ~full:(not found) ~pid:r.epid ~iv_id:iv.L.iv_id;
    Dyn_graph.find_ref (graph t) r

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
      let iv_id = iv.L.iv_id in
      build_interval t ~pid ~iv_id;
      (* a hole has no events *)
      let i = index t ~pid ~iv_id in
      let seq =
        if Bytes.get t.touched i = '\001' then Assembly.last_seq (asm t) i
        else -1
      in
      if seq < 0 then None
      else Dyn_graph.find_ref (graph t) { E.epid = pid; eseq = seq }
  end

(* The nested interval behind a sub-graph or loop node: it starts right
   after the call or loop-enter event. *)
let nested_interval t (r : E.eref) ~loop =
  let child_seq = r.E.eseq + 1 in
  match L.find_enclosing t.ivs.(r.E.epid) ~seq:child_seq with
  | Some iv
    when iv.L.iv_seq_start = child_seq
         && ((not loop)
            || match iv.L.iv_block with L.Bloop _ -> true | _ -> false) ->
    Some iv
  | Some _ | None -> None

let expand_subgraph t node_id =
  let node = Dyn_graph.node (graph t) node_id in
  let expand (r : E.eref) (iv : L.interval) =
    let pid = r.E.epid and iv_id = iv.L.iv_id in
    let fresh = Bytes.get t.touched (index t ~pid ~iv_id) = '\000' in
    if fresh then build_interval t ~pid ~iv_id;
    fresh
  in
  match (node.Dyn_graph.nd_kind, node.Dyn_graph.nd_ref) with
  | Dyn_graph.N_loop _, Some enter_ref -> (
    (* loop e-block: the fragment's nodes attach to this node *)
    match nested_interval t enter_ref ~loop:true with
    | Some iv -> expand enter_ref iv
    | None -> false)
  | Dyn_graph.N_subgraph _, Some call_ref -> (
    match nested_interval t call_ref ~loop:false with
    | Some iv ->
      let fresh = expand call_ref iv in
      (* stitch, whenever both ends exist: the call node governs the
         callee's entry, and the callee's returned value flows back into
         the sub-graph node (the %0 mapping of §4.2) *)
      let a = asm t and g = graph t in
      let pid = call_ref.E.epid in
      let node_at seq = Dyn_graph.find_ref g { E.epid = pid; eseq = seq } in
      Option.iter
        (fun entry ->
          Assembly.stitch a ~sub:node_id ~src:node_id ~dst:entry
            ~kind:Dyn_graph.Control)
        (node_at iv.L.iv_seq_start);
      let i = index t ~pid ~iv_id:iv.L.iv_id in
      (if Assembly.assembled a i && Assembly.return_seq a i >= 0 then
         Option.iter
           (fun ret ->
             Assembly.stitch a ~sub:node_id ~src:ret ~dst:node_id
               ~kind:(Dyn_graph.Dparam 0))
           (node_at (Assembly.return_seq a i)));
      IT.replace t.expanded node_id ();
      fresh
    | None -> false)
  | _, _ -> false

(* ------------------------------------------------------------------ *)
(* External (frontier) resolution.                                      *)
(* ------------------------------------------------------------------ *)

(* Interval that the external node's fragment belongs to: the reading
   event right after it in the same process. We recover it from the
   graph: external nodes have no ref, but their successors do. *)
let interval_of_node t node_id =
  let g = graph t in
  let rec find_ref n seen =
    if List.mem n seen then None
    else
      match (Dyn_graph.node g n).Dyn_graph.nd_ref with
      | Some r -> Some r
      | None ->
        List.fold_left
          (fun acc (s, _) ->
            match acc with Some _ -> acc | None -> find_ref s (n :: seen))
          None (Dyn_graph.succs g n)
  in
  match find_ref node_id [] with
  | None -> None
  | Some r -> Option.map (fun iv -> (r, iv)) (enclosing_interval t r)

(* The node of the last write of [vid] in an interval this request has
   assembled, with the value written. *)
let last_write_node t (iv : L.interval) vid =
  let i = index t ~pid:iv.L.iv_pid ~iv_id:iv.L.iv_id in
  if Bytes.get t.touched i <> '\001' then None
  else
    Assembly.last_write (asm t) i vid
    |> Option.map (fun (seq, value) ->
           ( Dyn_graph.find_ref (graph t) { E.epid = iv.L.iv_pid; eseq = seq },
             value ))

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

(* Link a resolved external to its writer: a query edge. *)
let link_external t node_id writer var =
  Assembly.add_query_edge (asm t) ~src:writer ~dst:node_id
    ~kind:(Dyn_graph.Data var);
  Dyn_graph.resolve_external (graph t) node_id;
  Some writer

(* Resolve a parameter external: the defining event is the caller's
   call (parent interval) or the spawner's spawn. *)
let resolve_param t node_id var (iv : L.interval) =
  let pid = iv.L.iv_pid in
  match iv.L.iv_parent with
  | Some parent_id -> (
    build_interval t ~pid ~iv_id:parent_id;
    (* the call event immediately precedes this interval's E_enter *)
    let call_ref = { E.epid = pid; eseq = iv.L.iv_seq_start - 1 } in
    match Dyn_graph.find_ref (graph t) call_ref with
    | Some writer -> link_external t node_id writer var
    | None -> None)
  | None -> (
    (* process root: the spawner wrote the parameter *)
    match spawner_ref t iv with
    | None -> None
    | Some r -> (
      match node_of_event t r with
      | Some writer -> link_external t node_id writer var
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
  let observed = (Dyn_graph.node (graph t) node_id).Dyn_graph.nd_value in
  let read_step =
    Store.Segment.snapshot_step t.src ~pid:reading_iv.L.iv_pid
      ~reader_seq:reader.Runtime.Event.eseq
  in
  let candidates = shared_write_candidates t ~vid ~read_step ~reading_iv in
  let rec try_candidates = function
    | [] -> None
    | iv :: rest -> (
      build_interval t ~pid:iv.L.iv_pid ~iv_id:iv.L.iv_id;
      match last_write_node t iv vid with
      | Some (Some writer, value)
        when match observed with
             | None -> true
             | Some o -> Runtime.Value.equal o value ->
        (* only accept writers not ordered after the read (race-free
           executions have a unique such maximal writer) *)
        link_external t node_id writer var
      | Some _ | None -> try_candidates rest)
  in
  try_candidates candidates

(* Resolve an external, remembering what the resolution visited: a
   request that finds it resolved by another visits the same intervals
   (DESIGN §14.6). *)
let resolve_external t node_id =
  match (Dyn_graph.node (graph t) node_id).Dyn_graph.nd_kind with
  | Dyn_graph.N_external var -> (
    t.trail <- Some [];
    let resolve () =
      match interval_of_node t node_id with
      | None -> None
      | Some (reader, iv) ->
        if P.is_global var then resolve_shared t node_id var ~reader iv
        else resolve_param t node_id var iv
    in
    match resolve () with
    | writer ->
      (match (writer, t.trail) with
      | Some _, Some trail ->
        Assembly.remember (asm t) node_id trail;
        IT.replace t.settled node_id ()
      | _ -> ());
      t.trail <- None;
      writer
    | exception e ->
      t.trail <- None;
      raise e)
  | _ -> None

(* An external another request resolved: visit what its resolution
   visited, in the same order. *)
let replay_resolution t node_id =
  if not (IT.mem t.settled node_id) then
    match Assembly.memo (asm t) node_id with
    | None -> ()
    | Some trail ->
      IT.replace t.settled node_id ();
      List.iter
        (fun code ->
          let full = code >= 0 in
          let i = if full then code else -code - 1 in
          let rec pid_of p = if t.base.(p + 1) > i then p else pid_of (p + 1) in
          let pid = pid_of 0 in
          visit t ~full ~pid ~iv_id:(i - t.base.(pid)))
        (List.rev trail)

(* The edges into a node that this request's own graph would hold. A
   loop node's come from its parent's fragment: none until the request
   has the parent. A call stitch exists once the request expanded its
   sub-graph node. *)
let visible t node_id preds =
  let g = graph t in
  let n = Dyn_graph.node g node_id in
  match (n.Dyn_graph.nd_kind, n.Dyn_graph.nd_ref) with
  | Dyn_graph.N_loop _, Some r -> (
    match enclosing_interval t r with
    | Some iv
      when Bytes.get t.touched (index t ~pid:r.E.epid ~iv_id:iv.L.iv_id)
           = '\001' ->
      preds
    | Some _ | None -> [])
  | _ -> (
    match Assembly.stitch_into (asm t) node_id with
    | Some (src, sub) when not (IT.mem t.expanded sub) ->
      List.filter (fun (s, _) -> s <> src) preds
    | Some _ | None -> preds)

let why t node_id =
  let g = graph t in
  (* the partner fragment of the sync link into this node: built when
     the link is pending, this request's already when it is linked *)
  (match Assembly.pending_source (asm t) node_id with
  | Some src -> ignore (node_of_event t src)
  | None ->
    List.iter
      (fun (p, (kind : Dyn_graph.edge_kind)) ->
        match kind with
        | Sync ->
          let seq = Dyn_graph.node_seq g p in
          if seq >= 0 then
            ignore
              (node_of_event t { E.epid = Dyn_graph.node_pid g p; eseq = seq })
        | _ -> ())
      (Dyn_graph.preds g node_id));
  (* resolve external predecessors *)
  List.iter
    (fun (p, _) ->
      if Dyn_graph.is_external g p then ignore (resolve_external t p)
      else replay_resolution t p)
    (Dyn_graph.preds g node_id);
  visible t node_id (Dyn_graph.preds g node_id)

let graph_size t =
  let a = asm t in
  (Assembly.nodes a, Assembly.fragment_edges a)

let stats (t : t) =
  {
    replays = t.replays;
    replay_steps = t.replay_steps;
    intervals_total = t.base.(Array.length t.ivs);
    cache_hits = t.cache_hits;
    cache_misses = t.cache_misses;
    holes = List.length t.holes_rev;
    retried = t.retried;
  }
