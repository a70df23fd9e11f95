(* The daemon core. Transport-independent: `handle_line` is the whole
   protocol, so cram (--rpc over stdin/stdout), the unix/tcp listeners
   and the in-process T13/T17 benches all share one dispatcher. Opening
   a log, answering a debugging command and mapping a failure to its
   PPD code go through Query, the path the one-shot CLI takes too: each
   row of its command table is one method here, so answers, parameters
   and error messages match the CLI by construction.

   Locking: [t.lock] guards the registry, session and recovered-session
   tables (open, close, session bookkeeping — all O(1) critical
   sections). Heavy method bodies run outside it: the segment reader is
   immutable after open apart from its mutex-sharded page LRU, the
   fragment cache is internally locked, and the pool accepts
   submissions from any thread. Session counters are only written by
   the session's own connection thread; `serverStats` reads them
   racily, which for monotonic ints is at worst one request stale.

   Survivability (DESIGN §17): every heavy request carries a
   [Resil.Deadline] (per-request [deadlineMs], else
   [--default-deadline-ms]) checked at gate wakeups and e-block replay
   boundaries (PPD090); transient replay faults retry under the
   jittered backoff policy; repeated *hard* faults on one log trip a
   per-log circuit breaker that fast-fails (PPD091) before the gate, so
   a poisoned log cannot occupy slots other sessions need; all page
   LRUs and fragment caches share one [--mem-budget] byte budget with
   cost-weighted reclaim; and the session table journals to a
   crash-recovery file that [--resume] replays, stale handles answering
   PPD092. *)

module J = Json

type config = {
  jobs : int;
  max_active : int;
  max_queue : int;
  max_open_logs : int;
  step_quota : int;
  default_deadline_ms : int;  (* 0 = no deadline *)
  mem_budget : int;  (* bytes; 0 = unlimited *)
  breaker : Resil.Breaker.config;
}

let default_config =
  {
    jobs = 1;
    max_active = 4;
    max_queue = 16;
    max_open_logs = 8;
    (* the replay steps of every interval a request reads count, also
       those a warm request finds in the entry's graph: two sessions
       busy on the e2e ledger read ~10^8 steps in 30 s *)
    step_quota = 1_000_000_000;
    default_deadline_ms = 0;
    mem_budget = 0;
    breaker = Resil.Breaker.default_config;
  }

(* One opened (log, program, policy) identity. Everything here is
   shared by every handle on it, across sessions: the reader's page
   LRU and the fragment cache are where concurrent sessions help each
   other. *)
type entry = {
  e_key : string;
  e_log : string;  (* the log's path *)
  e_src : Query.source;
  e_frag : Ppd.Fragcache.t;
  mutable e_refs : int;
}

(* A session slot either holds a live entry or the tombstone of a
   handle that [--resume] could not bring back: queries on it answer
   PPD092 with the reason instead of PPD083 (which would read as
   "you never opened this"). *)
type handle_state =
  | H_live of entry
  | H_stale of string

(* Global counters and their per-session mirrors (satellite: the
   globals must equal the sum of the serve.s<ID>.* namespaces; the
   perf gate asserts it). Only ever bumped in pairs. *)
let c_requests = Obs.counter "serve.requests"

let c_errors = Obs.counter "serve.errors"

let c_hits = Obs.counter "serve.cache.hits"

let c_misses = Obs.counter "serve.cache.misses"

let c_wait = Obs.counter "serve.queue_wait_ns"

let c_shed = Obs.counter "serve.shed"

type session = {
  s_id : int;
  s_handles : (int, handle_state) Hashtbl.t;
  (* handles are session-scoped: every session's first open is handle 1,
     so a scripted client never has to parse the number back out *)
  mutable s_next_handle : int;
  mutable s_requests : int;
  mutable s_errors : int;
  mutable s_cache_hits : int;
  mutable s_cache_misses : int;
  mutable s_replay_steps : int;
  mutable s_queue_wait_ns : int;
  mutable s_shed : int;
  mutable s_ended : bool;
  (* Obs mirrors, namespaced serve.s<ID>.* *)
  sc_requests : Obs.counter;
  sc_errors : Obs.counter;
  sc_hits : Obs.counter;
  sc_misses : Obs.counter;
  sc_wait : Obs.counter;
  sc_shed : Obs.counter;
}

type t = {
  cfg : config;
  lock : Mutex.t;
  entries : (string, entry) Hashtbl.t;  (* key -> entry *)
  sessions : (int, session) Hashtbl.t;
  mutable next_session : int;
  pool : Exec.Pool.t option;
  gate : Gate.t;
  breakers : Resil.Breaker.Group.t;
  budget : Resil.Budget.t option;
  journal : Journal.t option;
  recovered : (int, Journal.recovered) Hashtbl.t;
  started_ns : int;
}

let jrec t op = match t.journal with Some j -> Journal.append j op | None -> ()

let create ?(config = default_config) ?journal ?resume () =
  let jobs = max 1 config.jobs in
  let recovered : (int, Journal.recovered) Hashtbl.t = Hashtbl.create 4 in
  (match resume with
  | Some path ->
    List.iter
      (fun (r : Journal.recovered) -> Hashtbl.replace recovered r.rc_sid r)
      (Journal.replay (Journal.load path))
  | None -> ());
  (* --resume implies journaling back to the same file *)
  let journal_path = match resume with Some p -> Some p | None -> journal in
  let jn = Option.map Journal.create journal_path in
  (* compact rewrite: the fresh journal starts with the still-recoverable
     state, so a second crash before anyone attaches loses nothing *)
  (match jn with
  | Some j ->
    Hashtbl.fold (fun _ r acc -> r :: acc) recovered []
    |> List.sort (fun (a : Journal.recovered) b -> Int.compare a.rc_sid b.rc_sid)
    |> List.iter (fun (r : Journal.recovered) ->
           Journal.append j (Journal.Session r.rc_sid);
           List.iter
             (fun (handle, spec) ->
               Journal.append j (Journal.Open { sid = r.rc_sid; handle; spec }))
             r.rc_opens;
           if r.rc_steps > 0 then
             Journal.append j
               (Journal.Quota { sid = r.rc_sid; steps = r.rc_steps }))
  | None -> ());
  let next_session =
    Hashtbl.fold (fun sid _ m -> max m (sid + 1)) recovered 1
  in
  {
    cfg = { config with jobs };
    lock = Mutex.create ();
    entries = Hashtbl.create 8;
    sessions = Hashtbl.create 8;
    next_session;
    pool = (if jobs > 1 then Some (Exec.Pool.create ~jobs ()) else None);
    gate = Gate.create ~max_active:config.max_active ~max_queue:config.max_queue;
    breakers = Resil.Breaker.Group.create ~config:config.breaker ();
    budget =
      (if config.mem_budget > 0 then
         Some (Resil.Budget.create ~name:"serve.mem" ~cap:config.mem_budget ())
       else None);
    journal = jn;
    recovered;
    started_ns = Obs.now_ns ();
  }

let config t = t.cfg

let shutdown t =
  (match t.pool with Some p -> Exec.Pool.shutdown p | None -> ());
  match t.journal with Some j -> Journal.close j | None -> ()

let session t =
  Mutex.lock t.lock;
  let id = t.next_session in
  t.next_session <- id + 1;
  let pfx = Printf.sprintf "serve.s%d." id in
  let s =
    {
      s_id = id;
      s_handles = Hashtbl.create 4;
      s_next_handle = 1;
      s_requests = 0;
      s_errors = 0;
      s_cache_hits = 0;
      s_cache_misses = 0;
      s_replay_steps = 0;
      s_queue_wait_ns = 0;
      s_shed = 0;
      s_ended = false;
      sc_requests = Obs.counter (pfx ^ "requests");
      sc_errors = Obs.counter (pfx ^ "errors");
      sc_hits = Obs.counter (pfx ^ "cache.hits");
      sc_misses = Obs.counter (pfx ^ "cache.misses");
      sc_wait = Obs.counter (pfx ^ "queue_wait_ns");
      sc_shed = Obs.counter (pfx ^ "shed");
    }
  in
  Hashtbl.replace t.sessions id s;
  Mutex.unlock t.lock;
  jrec t (Journal.Session id);
  s

let session_id s = s.s_id

(* Drop one handle while holding [t.lock]. When the last reference to
   an entry falls, its caches leave the byte budget with it: the
   reclaimers are unregistered and both caches cleared (releasing
   their accounted bytes). *)
let drop_handle_locked t s h =
  match Hashtbl.find_opt s.s_handles h with
  | None -> None
  | Some (H_stale _) ->
    Hashtbl.remove s.s_handles h;
    Some 0
  | Some (H_live e) ->
    Hashtbl.remove s.s_handles h;
    e.e_refs <- e.e_refs - 1;
    if e.e_refs <= 0 then begin
      Hashtbl.remove t.entries e.e_key;
      match t.budget with
      | Some b ->
        Resil.Budget.remove_reclaimer b ("pages:" ^ e.e_key);
        Resil.Budget.remove_reclaimer b ("frags:" ^ e.e_key);
        Store.Segment.clear_cache e.e_src.reader;
        Ppd.Fragcache.clear e.e_frag
      | None -> ()
    end;
    Some e.e_refs

let end_session t s =
  Mutex.lock t.lock;
  let was_live = not s.s_ended in
  if was_live then begin
    s.s_ended <- true;
    let hs = Hashtbl.fold (fun h _ acc -> h :: acc) s.s_handles [] in
    List.iter (fun h -> ignore (drop_handle_locked t s h)) hs;
    Hashtbl.remove t.sessions s.s_id
  end;
  Mutex.unlock t.lock;
  if was_live then jrec t (Journal.End s.s_id)

(* ------------------------------------------------------------------ *)
(* Parameter extraction.                                                *)
(* ------------------------------------------------------------------ *)

type 'a rpc_result = ('a, string * string) result

let bad_params msg : 'a rpc_result = Error (Rpc.err_bad_params, msg)

let p_str params name : string rpc_result =
  match J.member name params with
  | Some (J.Str s) -> Ok s
  | Some _ -> bad_params (Printf.sprintf "param \"%s\" must be a string" name)
  | None -> bad_params (Printf.sprintf "missing param \"%s\"" name)

let p_int_opt params name ~default : int rpc_result =
  match J.member name params with
  | None -> Ok default
  | Some (J.Int i) -> Ok i
  | Some _ -> bad_params (Printf.sprintf "param \"%s\" must be an integer" name)

let p_handle t s params : entry rpc_result =
  match J.member "handle" params with
  | Some (J.Int h) -> (
    Mutex.lock t.lock;
    let e = Hashtbl.find_opt s.s_handles h in
    Mutex.unlock t.lock;
    match e with
    | Some (H_live e) -> Ok e
    | Some (H_stale reason) ->
      Error
        ( Rpc.err_stale,
          Printf.sprintf
            "handle %d is stale: it survived daemon recovery but its log \
             could not be reopened (%s)"
            h reason )
    | None ->
      Error
        ( Rpc.err_unknown_handle,
          Printf.sprintf "no open log with handle %d in this session" h ))
  | Some _ -> bad_params "param \"handle\" must be an integer"
  | None -> bad_params "missing param \"handle\""

let ( let* ) r f = match r with Error e -> Error e | Ok v -> f v

(* A query's failure, answered as the diagnostic's code and message:
   the same words the CLI prints (Query holds the one map). *)
let answered r =
  Result.map_error (fun d -> (d.Lang.Diag.d_code, d.Lang.Diag.d_message)) r

(* ------------------------------------------------------------------ *)
(* Methods.                                                             *)
(* ------------------------------------------------------------------ *)

(* The program a request names, compiled: PPD082 when the file cannot
   be read, PPD001 with the front end's message when it does not
   compile. *)
let compile_file path : Lang.Prog.t rpc_result =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> bad_params ("cannot read program file: " ^ e)
  | src -> (
    match Lang.Compile.compile_result src with
    | Ok prog -> Ok prog
    | Error e -> Error ("PPD001", Format.asprintf "%a" Lang.Diag.pp_error e))

(* Probe-or-build a registry entry for one (log, program, policy)
   identity. Does not take a reference — the caller binds handles.
   On a fresh insert the entry's two caches join the byte budget as
   reclaimers: page LRU first (weight 0 — pages are cheapest to
   re-decode), fragment outcomes second. *)
let acquire_entry t ~log ~program ~inline ~loops : entry rpc_result =
  let key = Printf.sprintf "%s\x00%s\x00%d\x00%d" log program inline loops in
  let fresh () =
    let* prog = compile_file program in
    let policy =
      {
        Analysis.Eblock.leaf_inline_max_stmts = inline;
        loop_block_min_body = loops;
      }
    in
    let* src =
      answered (Query.open_source ?budget:t.budget ~policy ~log prog)
    in
    Ok
      {
        e_key = key;
        e_log = log;
        e_src = src;
        e_frag = Ppd.Fragcache.create ?budget:t.budget ();
        e_refs = 0;
      }
  in
  (* probe the registry, build outside the lock on miss, then insert
     (second builder of the same key loses and is dropped) *)
  Mutex.lock t.lock;
  let hit = Hashtbl.find_opt t.entries key in
  Mutex.unlock t.lock;
  match hit with
  | Some e -> Ok e
  | None ->
    let* fresh_e = fresh () in
    Mutex.lock t.lock;
    let e, won =
      match Hashtbl.find_opt t.entries key with
      | Some racing -> (racing, false)
      | None ->
        Hashtbl.replace t.entries key fresh_e;
        (fresh_e, true)
    in
    Mutex.unlock t.lock;
    (if won then
       match t.budget with
       | Some b ->
         Resil.Budget.add_reclaimer b ~name:("pages:" ^ key) ~weight:0
           (Store.Segment.reclaim_cache fresh_e.e_src.reader);
         Resil.Budget.add_reclaimer b ~name:("frags:" ^ key) ~weight:1
           (Ppd.Fragcache.reclaim fresh_e.e_frag)
       | None -> ());
    Ok e

let m_open t s params =
  let* log = p_str params "log" in
  let* program = p_str params "program" in
  let* inline = p_int_opt params "inline" ~default:0 in
  let* loops = p_int_opt params "loops" ~default:0 in
  let quota_ok =
    Mutex.lock t.lock;
    let n = Hashtbl.length s.s_handles in
    Mutex.unlock t.lock;
    n < t.cfg.max_open_logs
  in
  if not quota_ok then
    Error
      ( Rpc.err_quota,
        Printf.sprintf "session open-log quota exhausted (%d)"
          t.cfg.max_open_logs )
  else
    let* e = acquire_entry t ~log ~program ~inline ~loops in
    Mutex.lock t.lock;
    let h = s.s_next_handle in
    s.s_next_handle <- h + 1;
    e.e_refs <- e.e_refs + 1;
    Hashtbl.replace s.s_handles h (H_live e);
    Mutex.unlock t.lock;
    jrec t
      (Journal.Open
         {
           sid = s.s_id;
           handle = h;
           spec =
             {
               Journal.o_log = log;
               o_program = program;
               o_inline = inline;
               o_loops = loops;
             };
         });
    let r = e.e_src.reader in
    Ok
      (J.Obj
         [
           ("handle", J.Int h);
           ("version", J.Int Store.Segment.format_version);
           ("nprocs", J.Int (Store.Segment.nprocs r));
           ("bytes", J.Int (Store.Segment.file_bytes r));
           ("refs", J.Int e.e_refs);
         ])

let m_close t s params =
  match J.member "handle" params with
  | Some (J.Int h) -> (
    Mutex.lock t.lock;
    let refs = drop_handle_locked t s h in
    Mutex.unlock t.lock;
    match refs with
    | Some refs ->
      jrec t (Journal.Close { sid = s.s_id; handle = h });
      Ok (J.Obj [ ("closed", J.Bool true); ("refs", J.Int refs) ])
    | None ->
      Error
        ( Rpc.err_unknown_handle,
          Printf.sprintf "no open log with handle %d in this session" h ))
  | Some _ -> bad_params "param \"handle\" must be an integer"
  | None -> bad_params "missing param \"handle\""

(* Adopt a journaled session: reopen its logs under the original handle
   numbers (so a reconnecting client's scripts keep working), inherit
   its consumed replay-step quota, and re-journal everything under the
   live session id. A log that cannot be reopened becomes a stale
   handle answering PPD092 — recovery never turns one bad file into a
   failed attach. *)
let m_attach t s params =
  match J.member "session" params with
  | Some (J.Int sid) -> (
    Mutex.lock t.lock;
    let has_handles = Hashtbl.length s.s_handles > 0 in
    let rec_opt =
      if has_handles then None
      else
        match Hashtbl.find_opt t.recovered sid with
        | None -> None
        | Some r ->
          Hashtbl.remove t.recovered sid;
          Some r
    in
    Mutex.unlock t.lock;
    if has_handles then
      bad_params "attach requires a session with no open handles"
    else
      match rec_opt with
      | None ->
        Error
          ( Rpc.err_stale,
            Printf.sprintf
              "no recoverable session %d in the journal (already attached, \
               ended cleanly, or never existed)"
              sid )
      | Some r ->
        let adopted =
          List.map
            (fun (h, (spec : Journal.open_spec)) ->
              match
                acquire_entry t ~log:spec.o_log ~program:spec.o_program
                  ~inline:spec.o_inline ~loops:spec.o_loops
              with
              | Ok e -> (h, spec, H_live e)
              | Error (code, msg) -> (h, spec, H_stale (code ^ ": " ^ msg))
              | exception e -> (h, spec, H_stale (Printexc.to_string e)))
            r.Journal.rc_opens
        in
        Mutex.lock t.lock;
        List.iter
          (fun (h, _, st) ->
            (match st with
            | H_live e -> e.e_refs <- e.e_refs + 1
            | H_stale _ -> ());
            Hashtbl.replace s.s_handles h st;
            s.s_next_handle <- max s.s_next_handle (h + 1))
          adopted;
        s.s_replay_steps <- s.s_replay_steps + r.Journal.rc_steps;
        Mutex.unlock t.lock;
        jrec t (Journal.End sid);
        List.iter
          (fun (h, spec, _) ->
            jrec t (Journal.Open { sid = s.s_id; handle = h; spec }))
          adopted;
        if r.Journal.rc_steps > 0 then
          jrec t (Journal.Quota { sid = s.s_id; steps = r.Journal.rc_steps });
        let handle_json (h, (spec : Journal.open_spec), st) =
          J.Obj
            [
              ("handle", J.Int h);
              ("log", J.Str spec.o_log);
              ("live", J.Bool (match st with H_live _ -> true | _ -> false));
              ( "reason",
                match st with H_stale r -> J.Str r | H_live _ -> J.Null );
            ]
        in
        Ok
          (J.Obj
             [
               ("attached", J.Int sid);
               ("replaySteps", J.Int r.Journal.rc_steps);
               ("handles", J.List (List.map handle_json adopted));
             ]))
  | Some _ -> bad_params "param \"session\" must be an integer"
  | None -> bad_params "missing param \"session\""

(* The largest per-request [maxReplaySteps] a client may ask for. *)
let max_replay_steps_cap = 10_000_000

(* A row's parameters (its own and the common ones) from the request:
   the default where absent, PPD082 where ill-typed. *)
let p_args params (ps : Query.param list) : Query.args rpc_result =
  let one (p : Query.param) =
    let must what =
      bad_params (Printf.sprintf "param \"%s\" must be %s" p.key what)
    in
    match (p.default, J.member p.key params) with
    | d, None -> Ok d
    | Query.Int _, Some (J.Int i) -> Ok (Query.Int i)
    | Query.Int _, Some _ -> must "an integer"
    | Query.Flag _, Some (J.Bool b) -> Ok (Query.Flag b)
    | Query.Flag _, Some _ -> must "a boolean"
    | Query.Assigns _, Some (J.Obj kvs) ->
      let ints =
        List.filter_map (function n, J.Int v -> Some (n, v) | _ -> None) kvs
      in
      if List.length ints = List.length kvs then Ok (Query.Assigns ints)
      else must "an object of integers"
    | Query.Assigns _, Some _ -> must "an object of integers"
  in
  List.fold_right
    (fun p acc ->
      let* rest = acc in
      let* v = one p in
      Ok ((p.Query.key, v) :: rest))
    ps (Ok [])

(* The per-request controller config. A fresh controller per request
   keeps graph, stats and holes private to the request, while the
   reader, pool and fragment cache are the shared substrate. The
   resilience envelope rides in the config: the deadline is checked at
   every e-block replay boundary, and transient pool/store faults retry
   under the controller's retry budget with jittered backoff, seeded
   per request from the (session, request) ordinal pair so the schedule
   is deterministic and delays never change the answer. *)
let request_config s ~deadline args =
  let config = Query.config args in
  if config.Ppd.Controller.max_replay_steps > max_replay_steps_cap then
    Error
      ( Rpc.err_quota,
        Printf.sprintf "maxReplaySteps %d exceeds the server cap %d"
          config.Ppd.Controller.max_replay_steps max_replay_steps_cap )
  else
    Ok
      {
        config with
        deadline;
        backoff = Some Resil.Backoff.default;
        retry_seed = (s.s_id * 1_000_003) + s.s_requests;
      }

(* Post-query accounting: fold the controller's exact per-instance
   counters into the session (plain ints) and the Obs namespaces, and
   build the answer: the row's own [fields], then the common ones. *)
let query_result s ~output (a : Query.answer) =
  let st = a.Query.stats in
  s.s_cache_hits <- s.s_cache_hits + st.Ppd.Controller.cache_hits;
  s.s_cache_misses <- s.s_cache_misses + st.Ppd.Controller.cache_misses;
  s.s_replay_steps <- s.s_replay_steps + st.Ppd.Controller.replay_steps;
  Obs.add c_hits st.Ppd.Controller.cache_hits;
  Obs.add s.sc_hits st.Ppd.Controller.cache_hits;
  Obs.add c_misses st.Ppd.Controller.cache_misses;
  Obs.add s.sc_misses st.Ppd.Controller.cache_misses;
  J.Obj
    (List.map (fun (k, v) -> (k, J.Int v)) a.Query.fields
    @ [
        ("output", J.Str output);
        ("replays", J.Int st.Ppd.Controller.replays);
        ("replaySteps", J.Int st.Ppd.Controller.replay_steps);
        ("holes", J.Int st.Ppd.Controller.holes);
        ("cacheHits", J.Int st.Ppd.Controller.cache_hits);
        ("cacheMisses", J.Int st.Ppd.Controller.cache_misses);
      ])

(* One method per command-table row: the handle's source, the row's
   parameters, the answer rendered into a buffer that becomes the
   result's [output]. *)
let m_query t s ~deadline (row : Query.row) params =
  let* e = p_handle t s params in
  let* args = p_args params (row.Query.params @ Query.common) in
  let* config = request_config s ~deadline args in
  let buf = Buffer.create 1024 in
  let* a =
    answered
      (row.Query.run
         { Query.config; pool = t.pool; shared = Some e.e_frag; dot = None }
         args (Render.buffer_sink buf) e.e_src)
  in
  Ok (query_result s ~output:(Buffer.contents buf) a)

let m_proto _t _s params =
  let* program = p_str params "program" in
  let* budget = p_int_opt params "budget" ~default:200_000 in
  let* bound = p_int_opt params "bound" ~default:8 in
  let* p = compile_file program in
  let r = Analysis.Proto.analyze ~budget ~bound p in
  let certs =
    match r.Analysis.Proto.verdict with
    | Analysis.Proto.Deadlocks cs -> List.length cs
    | _ -> 0
  in
  Ok
    (J.Obj
       [
         ( "verdict",
           J.Str (Analysis.Proto.verdict_name r.Analysis.Proto.verdict) );
         ("statesFull", J.Int r.Analysis.Proto.stats.states_full);
         ("statesReduced", J.Int r.Analysis.Proto.stats.states_reduced);
         ("truncated", J.Bool r.Analysis.Proto.stats.truncated);
         ("certificates", J.Int certs);
         ("facts", J.Int (List.length r.Analysis.Proto.facts));
       ])

let m_fsck _t _s params =
  let* log = p_str params "log" in
  answered
    (Query.guard (fun () ->
         let rp = Store.Segment.fsck log in
         let page (p : Store.Segment.fsck_page) =
           J.Obj
             [
               ("pid", J.Int p.Store.Segment.fp_pid);
               ("page", J.Int p.Store.Segment.fp_page);
               ("offset", J.Int p.Store.Segment.fp_offset);
               ("count", J.Int p.Store.Segment.fp_count);
               ( "error",
                 match p.Store.Segment.fp_error with
                 | None -> J.Null
                 | Some e -> J.Str e );
             ]
         in
         let dmg (d : Store.Segment.damage) =
           J.Obj
             [
               ("offset", J.Int d.Store.Segment.dmg_offset);
               ("reason", J.Str d.Store.Segment.dmg_reason);
             ]
         in
         J.Obj
             [
               ("path", J.Str log);
               ("version", J.Int Store.Segment.format_version);
               ("bytes", J.Int rp.Store.Segment.fk_bytes);
               ("indexed", J.Bool rp.Store.Segment.fk_indexed);
               ("clean", J.Bool rp.Store.Segment.fk_clean);
               ("tier", J.Str rp.Store.Segment.fk_tier);
               ("checkpoints", J.Int rp.Store.Segment.fk_ckpts);
               ("procs", J.Int rp.Store.Segment.fk_procs);
               ("records", J.Int rp.Store.Segment.fk_records);
               ("intervals", J.Int rp.Store.Segment.fk_intervals);
               ("pages", J.List (List.map page rp.Store.Segment.fk_pages));
               ("damage", J.List (List.map dmg rp.Store.Segment.fk_damage));
             ]))

(* The entry's dynamic graph (DESIGN §14.6): its size, what it is
   charged, and how often the budget evicted it. *)
let graph_fields e =
  let g = Ppd.Fragcache.graph_stats e.e_frag in
  [
    ("nodes", J.Int g.Ppd.Fragcache.g_nodes);
    ("edges", J.Int g.Ppd.Fragcache.g_edges);
    ("intervals", J.Int g.Ppd.Fragcache.g_intervals);
    ("bytes", J.Int g.Ppd.Fragcache.g_bytes);
    ("evictions", J.Int g.Ppd.Fragcache.g_evictions);
  ]

let m_stats t s params =
  let* e = p_handle t s params in
  let fs = Ppd.Fragcache.stats e.e_frag in
  let r = e.e_src.reader in
  Ok
    (J.Obj
       [
         ("log", J.Str e.e_log);
         ("version", J.Int Store.Segment.format_version);
         ("nprocs", J.Int (Store.Segment.nprocs r));
         ("bytes", J.Int (Store.Segment.file_bytes r));
         ("refs", J.Int e.e_refs);
         ( "fragCache",
           J.Obj
             [
               ("size", J.Int (Ppd.Fragcache.size e.e_frag));
               ("hits", J.Int fs.Ppd.Fragcache.hits);
               ("misses", J.Int fs.Ppd.Fragcache.misses);
               ("inserts", J.Int fs.Ppd.Fragcache.inserts);
               ("hitRate", J.Float (Ppd.Fragcache.hit_rate e.e_frag));
             ] );
         ("graph", J.Obj (graph_fields e));
       ])

let m_profile _t _s _params =
  (* the Obs export is itself JSON; embed it as a value when it parses
     (it should — both sides are this repo's hand-rolled printers) *)
  let raw = Obs.to_json () in
  match J.parse raw with
  | Ok v -> Ok (J.Obj [ ("profile", v) ])
  | Error _ -> Ok (J.Obj [ ("profile", J.Str raw) ])

let m_server_stats t _s _params =
  Mutex.lock t.lock;
  let sessions =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
    |> List.sort (fun a b -> Int.compare a.s_id b.s_id)
  in
  let n_entries = Hashtbl.length t.entries in
  let n_handles =
    List.fold_left (fun acc s -> acc + Hashtbl.length s.s_handles) 0 sessions
  in
  let entries =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.entries []
    |> List.sort (fun a b -> String.compare a.e_key b.e_key)
  in
  let n_recoverable = Hashtbl.length t.recovered in
  Mutex.unlock t.lock;
  let page_bytes =
    List.fold_left (fun a e -> a + Store.Segment.cache_bytes e.e_src.reader) 0
      entries
  in
  let frag_bytes =
    List.fold_left (fun a e -> a + Ppd.Fragcache.bytes e.e_frag) 0 entries
  in
  let g = Gate.stats t.gate in
  let state_name = function
    | Resil.Breaker.Closed -> "closed"
    | Resil.Breaker.Open -> "open"
    | Resil.Breaker.Half_open -> "halfOpen"
  in
  let breaker_json (b : Resil.Breaker.stats) =
    J.Obj
      [
        ("key", J.Str b.Resil.Breaker.st_key);
        ("state", J.Str (state_name b.Resil.Breaker.st_state));
        ("failures", J.Int b.Resil.Breaker.st_failures);
        ("trips", J.Int b.Resil.Breaker.st_trips);
        ("fastFails", J.Int b.Resil.Breaker.st_fast_fails);
      ]
  in
  let session_json s =
    J.Obj
      [
        ("id", J.Int s.s_id);
        ("requests", J.Int s.s_requests);
        ("errors", J.Int s.s_errors);
        ("openLogs", J.Int (Hashtbl.length s.s_handles));
        ("cacheHits", J.Int s.s_cache_hits);
        ("cacheMisses", J.Int s.s_cache_misses);
        ("replaySteps", J.Int s.s_replay_steps);
        ("queueWaitNs", J.Int s.s_queue_wait_ns);
        ("shed", J.Int s.s_shed);
      ]
  in
  Ok
    (J.Obj
       [
         ("uptimeNs", J.Int (Obs.now_ns () - t.started_ns));
         ("jobs", J.Int t.cfg.jobs);
         ("openLogs", J.Int n_entries);
         ("openHandles", J.Int n_handles);
         ("recoverable", J.Int n_recoverable);
         ( "gate",
           J.Obj
             [
               ("active", J.Int g.Gate.active);
               ("queued", J.Int g.Gate.queued);
               ("admitted", J.Int g.Gate.admitted);
               ("shed", J.Int g.Gate.shed);
               ("deadlineDrops", J.Int g.Gate.deadline_drops);
               ("totalWaitNs", J.Int g.Gate.total_wait_ns);
             ] );
         ( "breakers",
           J.List (List.map breaker_json (Resil.Breaker.Group.all t.breakers))
         );
         ( "memory",
           J.Obj
             [
               ( "budgetCap",
                 J.Int
                   (match t.budget with
                   | Some b -> Resil.Budget.cap b
                   | None -> 0) );
               ( "budgetUsed",
                 J.Int
                   (match t.budget with
                   | Some b -> Resil.Budget.used b
                   | None -> 0) );
               ("pageBytes", J.Int page_bytes);
               ("fragBytes", J.Int frag_bytes);
             ] );
         ( "graphs",
           J.List
             (List.map
                (fun e -> J.Obj (("log", J.Str e.e_log) :: graph_fields e))
                entries) );
         ("sessions", J.List (List.map session_json sessions));
       ])

(* ------------------------------------------------------------------ *)
(* Dispatch.                                                            *)
(* ------------------------------------------------------------------ *)

(* Hard faults are the ones that indict the log itself — unreadable
   pages, reconstruction or replay divergence, injected storage faults
   — and feed the per-log circuit breaker. Everything else (deadline,
   quota, shedding, bad params) proves nothing about the log and
   abstains. *)
let hard_fault code = List.mem code [ "PPD050"; "PPD061"; "PPD062"; "PPD086" ]

(* Heavy methods replay log intervals: they pass the per-log circuit
   breaker (PPD091 fast-fail without ever taking a slot), the
   admission gate (shedding PPD084 under overload; abandoning the
   queue on deadline expiry, PPD090) and the session's lifetime
   replay-step quota (PPD085). Registry and bookkeeping methods always
   run — a busy server must still answer close/stats. *)
let heavy t s p (body : Resil.Deadline.t -> J.t rpc_result) =
  if s.s_replay_steps >= t.cfg.step_quota then
    Error
      ( Rpc.err_quota,
        Printf.sprintf "session replay-step quota exhausted (%d)"
          t.cfg.step_quota )
  else
    let* dl_ms = p_int_opt p "deadlineMs" ~default:t.cfg.default_deadline_ms in
    let deadline = Resil.Deadline.after_ms dl_ms in
    let run () =
      match
        Gate.with_slot ~deadline t.gate (fun ~queue_wait_ns ->
            s.s_queue_wait_ns <- s.s_queue_wait_ns + queue_wait_ns;
            Obs.add c_wait queue_wait_ns;
            Obs.add s.sc_wait queue_wait_ns;
            body deadline)
      with
      | Ok r -> r
      | Error `Busy ->
        s.s_shed <- s.s_shed + 1;
        Obs.incr c_shed;
        Obs.incr s.sc_shed;
        Error
          ( Rpc.err_busy,
            Printf.sprintf
              "server busy: %d active and %d queued requests (retry later)"
              t.cfg.max_active t.cfg.max_queue )
      | Error `Deadline ->
        Error
          ( Rpc.err_deadline,
            Printf.sprintf
              "deadline exceeded: request expired after %dms waiting for an \
               execution slot"
              dl_ms )
    in
    (* the breaker guards the log this request replays; handle-less
       heavy methods (proto, fsck) have no log to quarantine *)
    let bkey =
      match J.member "handle" p with
      | Some (J.Int h) -> (
        Mutex.lock t.lock;
        let st = Hashtbl.find_opt s.s_handles h in
        Mutex.unlock t.lock;
        match st with Some (H_live e) -> Some e.e_log | _ -> None)
      | _ -> None
    in
    let r =
      match bkey with
      | None -> run ()
      | Some key -> (
        let b = Resil.Breaker.Group.get t.breakers key in
        if not (Resil.Breaker.acquire b) then
          Error
            ( Rpc.err_quarantined,
              Printf.sprintf
                "log %s is quarantined after repeated hard faults (retry \
                 after the cooldown; other logs are unaffected)"
                key )
        else
          match run () with
          | Ok _ as r ->
            Resil.Breaker.success b;
            r
          | Error (code, _) as r ->
            if hard_fault code then Resil.Breaker.failure b
            else Resil.Breaker.abstain b;
            r
          | exception e ->
            Resil.Breaker.abstain b;
            raise e)
    in
    (* persist the replay-step high-water so a crash-recovered session
       cannot reset its lifetime quota *)
    if t.journal <> None then
      jrec t (Journal.Quota { sid = s.s_id; steps = s.s_replay_steps });
    r

let methods =
  [ "ping"; "open"; "close"; "attach" ]
  @ List.map (fun r -> r.Query.name) Query.table
  @ [ "proto"; "fsck"; "profile"; "stats"; "serverStats" ]

let dispatch t s (rq : Rpc.request) : J.t rpc_result =
  let p = rq.Rpc.rq_params in
  match rq.Rpc.rq_method with
  | "ping" -> Ok (J.Obj [ ("pong", J.Bool true) ])
  | "open" -> m_open t s p
  | "close" -> m_close t s p
  | "attach" -> m_attach t s p
  | "stats" -> m_stats t s p
  | "profile" -> m_profile t s p
  | "serverStats" -> m_server_stats t s p
  | "proto" -> heavy t s p (fun _deadline -> m_proto t s p)
  | "fsck" -> heavy t s p (fun _deadline -> m_fsck t s p)
  | m -> (
    match Query.find m with
    | Some row -> heavy t s p (fun deadline -> m_query t s ~deadline row p)
    | None ->
      Error
        ( Rpc.err_unknown_method,
          Printf.sprintf "unknown method \"%s\" (known: %s)" m
            (String.concat " " methods) ))

let handle_line t s line =
  s.s_requests <- s.s_requests + 1;
  Obs.incr c_requests;
  Obs.incr s.sc_requests;
  let err ~id ~code ~message =
    s.s_errors <- s.s_errors + 1;
    Obs.incr c_errors;
    Obs.incr s.sc_errors;
    Rpc.error_line ~id ~code ~message
  in
  match Rpc.parse_request line with
  | Error (code, message) -> err ~id:J.Null ~code ~message
  | Ok rq -> (
    match dispatch t s rq with
    | Ok result -> Rpc.result_line ~id:rq.Rpc.rq_id result
    | Error (code, message) -> err ~id:rq.Rpc.rq_id ~code ~message
    | exception e ->
      (* the last-resort guard: a bug in a method body degrades that
         request, never the daemon *)
      err ~id:rq.Rpc.rq_id ~code:Rpc.err_protocol
        ~message:("internal error: " ^ Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* Transports.                                                          *)
(* ------------------------------------------------------------------ *)

let serve_channel t ~ic ~put_line =
  let s = session t in
  (try
     let rec loop () =
       match In_channel.input_line ic with
       | None -> ()
       | Some line ->
         if String.trim line = "" then loop ()
         else begin
           put_line (handle_line t s line);
           loop ()
         end
     in
     loop ()
   with Sys_error _ | End_of_file -> ());
  end_session t s

let run_stdio t =
  serve_channel t ~ic:In_channel.stdin ~put_line:(fun l ->
      print_string l;
      print_newline ();
      flush stdout)

(* Socket listeners: accept on the calling thread (select with a short
   timeout so [stop] — set from a signal handler — is honoured within
   ~200ms), one sys-thread per connection. On stop, live connections
   are shut down (their readers see EOF and the threads run out), then
   joined, so "pool drained, no leaked socket" holds by the time this
   returns. *)
let run_listener t fd ~stop ~cleanup =
  Unix.listen fd 64;
  let conn_lock = Mutex.create () in
  let conns = ref [] in
  let track c =
    Mutex.lock conn_lock;
    conns := c :: !conns;
    Mutex.unlock conn_lock
  in
  let rec accept_loop threads =
    if Atomic.get stop then threads
    else
      match Unix.select [ fd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop threads
      | [], _, _ -> accept_loop threads
      | _ -> (
        match Unix.accept fd with
        | exception Unix.Unix_error (_, _, _) -> accept_loop threads
        | cfd, _ ->
          track cfd;
          let th =
            Thread.create
              (fun () ->
                let ic = Unix.in_channel_of_descr cfd in
                let oc = Unix.out_channel_of_descr cfd in
                serve_channel t ~ic ~put_line:(fun l ->
                    output_string oc l;
                    output_char oc '\n';
                    flush oc);
                try Unix.close cfd with Unix.Unix_error _ -> ())
              ()
          in
          accept_loop (th :: threads))
  in
  let threads = accept_loop [] in
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock conn_lock;
  let live = !conns in
  Mutex.unlock conn_lock;
  List.iter
    (fun c -> try Unix.shutdown c Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    live;
  List.iter Thread.join threads;
  cleanup ();
  shutdown t

let run_unix ~stop t ~path =
  (if Sys.file_exists path then
     (* a previous daemon's leftover: rebinding requires the name free *)
     try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  run_listener t fd ~stop ~cleanup:(fun () ->
      try Unix.unlink path with Unix.Unix_error _ -> ())

let run_tcp ~stop t ~port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  run_listener t fd ~stop ~cleanup:(fun () -> ())
