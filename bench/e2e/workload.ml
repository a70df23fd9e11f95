(* The four workloads, the closed loop that runs them, and the traced run.

   Every workload is a closed loop: one client, the benchmark's only
   thread, sends its next request after the previous reply. A second
   client thread would add no throughput (requests serialize on the
   daemon's domain) and would put the thread scheduler's 50 ms slices
   into the latencies. *)

module F = Fixture
module J = Serve.Json
module C = Ppd.Controller

type name = Session_content | Session_order | Cold_open | Record

let names =
  [
    ("session-content", Session_content);
    ("session-order", Session_order);
    ("cold-open", Cold_open);
    ("record", Record);
  ]

type config = {
  seed : int;
  seconds : float;  (** length of the timed phase *)
  max_ops : int;  (** per client; the smoke test passes a small count *)
  setups : int;  (** set-up repetitions; [setup_s] is their median *)
  trace : string option;  (** [Some file]: the traced run, trace written there *)
}

type metric = { m_name : string; m_value : float; m_unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  samples : int;  (** timed ops behind the latency figures *)
  speed : float option;  (** the timed phase's {!Speed.factor}; none when traced *)
  metrics : metric list;
}

let now = Obs.now_ns

let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Run state.                                                           *)
(* ------------------------------------------------------------------ *)

type run = {
  cfg : config;
  dir : string;
  mutable attempted : int;
  mutable failed : int;
  mutable recordings : (int * F.recording) list;
      (** with the round each belongs to: a probe, or a block of ops *)
  setup_speed : Speed.t;  (** sampled before each set-up *)
  speed : Speed.t;  (** sampled before each probe of the timed phase *)
}

(* Count one checked answer; the first wrong one goes to stderr. *)
let check run ~what (r : (unit, string) Stdlib.result) =
  run.attempted <- run.attempted + 1;
  match r with
  | Ok () -> ()
  | Error msg ->
    if run.failed = 0 then Printf.eprintf "ppdbench: %s: %s\n%!" what msg;
    run.failed <- run.failed + 1

let check_response run ~what ~answer line =
  check run ~what
    (match F.response_output line with
    | Ok (out, _) when out = answer -> Ok ()
    | Ok (out, _) -> Error ("answer differs from the reference:\n" ^ out)
    | Error e -> Error e)

(* Record a program in one tier, keeping the execution-phase figures. *)
let record run ?(round = 0) ~tier (p : F.program) eb path =
  let r, log = F.record ~tier p eb path in
  run.recordings <- (round, r) :: run.recordings;
  (r, log)

(* ------------------------------------------------------------------ *)
(* Scripts and the closed loop.                                         *)
(* ------------------------------------------------------------------ *)

(* Op [k] of the script: the script is [block] repeated, each
   repetition shuffled by (seed, repetition). The mix of every block is
   exact, so seeds change the order of requests, not their
   proportions. *)
let script ~seed block k =
  let n = Array.length block in
  let a = Array.copy block in
  let st = Random.State.make [| seed; k / n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a.(k mod n)

(* A block holding each element its weight's number of times. *)
let weighted l = Array.of_list (List.concat_map (fun (x, n) -> List.init n (fun _ -> x)) l)

type sample = { k : int; lat : int }

(* How often the workload's probe runs, between stretches of ops. *)
let probe_every_ns = 500_000_000

(* Run the closed loop until [deadline] (or [max_ops]); [op k] performs
   and checks op [k] and returns its latency. Every half second, between
   two ops, [probe] runs. *)
let closed_loop ?(probe = ignore) ~deadline ~max_ops op =
  let samples = ref [] and k = ref 0 in
  while now () < deadline && !k < max_ops do
    probe ();
    let until = min deadline (now () + probe_every_ns) in
    while !k < max_ops && now () < until do
      samples := { k = !k; lat = op !k } :: !samples;
      incr k
    done
  done;
  !samples

let deadline_after seconds = now () + int_of_float (seconds *. 1e9)

let percentile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let median_int xs = percentile 0.5 (List.map float_of_int xs)

(* Set up [cfg.setups] times afresh and keep the last; the median is the
   set-up time. The machine's speed is sampled before each. *)
let repeat_setup run ~setup ~dispose =
  let n = run.cfg.setups in
  let rec go i acc =
    Speed.sample run.setup_speed;
    let t0 = now () in
    let env = setup () in
    let acc = (now () - t0) :: acc in
    if i + 1 >= n then (env, median_int acc /. 1e9)
    else begin
      dispose env;
      go (i + 1) acc
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Fixtures on disk.                                                    *)
(* ------------------------------------------------------------------ *)

type fixture = {
  prog : F.program;
  mpl : string;
  eb : Analysis.Eblock.t;
  content : Trace.Log.t;  (** the in-memory log of the content recording *)
}

let log_of run fx tier = F.log_path run.dir fx.prog tier

(* Write the program and record it in both tiers. *)
let make_fixture run (p : F.program) =
  let mpl = F.mpl_path run.dir p in
  F.write_file mpl p.F.src;
  let eb = F.analyze p.F.src in
  let _, content = record run ~tier:F.Content p eb (F.log_path run.dir p F.Content) in
  ignore (record run ~tier:F.Order p eb (F.log_path run.dir p F.Order));
  { prog = p; mpl; eb; content }

(* The workloads' main program, salted by the seed: 4 workers x 300
   rounds, ~1.2k nested intervals, 14k steps, a 165 KB content log. *)
let ledger ?(workers = 4) ?(rounds = 300) run =
  F.ledger_program ~salt:(abs run.cfg.seed mod 1000) ~workers ~rounds

let references fx ~path reqs =
  List.map (fun req -> (req, F.reference fx.eb fx.content ~path req)) reqs

let find_ref refs req = List.assoc req refs

(* ------------------------------------------------------------------ *)
(* Cold sessions: create a server, open, ask, shut down.                *)
(* ------------------------------------------------------------------ *)

let server ~jobs =
  Serve.Server.create ~config:{ Serve.Server.default_config with jobs } ()

(* One cold debugging session. Returns the session's wall time and the
   time from [open] to the first answer; answers are checked after the
   clock stops. *)
let cold_session run ~jobs ~mpl ~log ~refs reqs =
  let t0 = now () in
  let srv = server ~jobs in
  let s = Serve.Server.session srv in
  let t_open = now () in
  let opened =
    Serve.Server.handle_line srv s (F.open_line ~id:1 ~log ~program:mpl)
  in
  let first = ref 0 in
  let answers =
    List.mapi
      (fun i req ->
        let resp =
          Serve.Server.handle_line srv s (F.request_line ~id:(i + 2) ~handle:1 req)
        in
        if i = 0 then first := now () - t_open;
        (req, resp))
      reqs
  in
  Serve.Server.end_session srv s;
  Serve.Server.shutdown srv;
  let total = now () - t0 in
  check run ~what:("open " ^ log)
    (Result.map (fun _ -> ()) (F.response_output opened));
  List.iter
    (fun (req, resp) ->
      check_response run
        ~what:(F.request_name req ^ " on " ^ log)
        ~answer:(find_ref refs req).F.answer resp)
    answers;
  (total, !first)

(* The first-answer probe: a cold jobs=1 session that asks one depth-8
   flowback; returns open-to-answer time. *)
let first_answer run fx ~log ~refs =
  snd (cold_session run ~jobs:1 ~mpl:fx.mpl ~log ~refs [ F.Flowback 8 ])

(* ------------------------------------------------------------------ *)
(* The traced decomposition of each op.                                 *)
(* ------------------------------------------------------------------ *)

(* The benchmark's own view of an open log, mirroring the daemon's
   registry entry: a reader, a fragment cache, and the keys that cache
   holds clean outcomes for (the daemon never caches the faulting
   interval, so it replays it on every request). *)
type bentry = {
  b_log : string;
  b_eb : Analysis.Eblock.t;
  b_reader : Store.Segment.reader;
  b_order : bool;
  b_ivs : Trace.Log.interval array array;
  b_nprocs : int;
  b_frag : Ppd.Fragcache.t;
  b_clean : (int * int, unit) Hashtbl.t;
  b_pool : Exec.Pool.t option;
}

let bentry ?pool fx ~log ~eb reader =
  let content = fx.content in
  let stmt_fid sid = eb.Analysis.Eblock.prog.Lang.Prog.stmt_fid.(sid) in
  {
    b_log = log;
    b_eb = eb;
    b_reader = reader;
    b_order = Store.Segment.tier reader <> Trace.Log.T_content;
    b_ivs =
      Array.init content.Trace.Log.nprocs (fun pid ->
          Trace.Log.intervals ~stmt_fid content ~pid);
    b_nprocs = content.Trace.Log.nprocs;
    b_frag = Ppd.Fragcache.create ();
    b_clean = Hashtbl.create 256;
    b_pool = pool;
  }

(* Obs counters the traced run reads, per op, from the decomposition. *)
let harvest tr =
  List.iter
    (fun (n, v) ->
      match n with
      | "store.segment.page_faults" -> Layers.count tr "store.page_faults" v
      | "store.segment.page_hits" -> Layers.count tr "store.page_hits" v
      | "exec.pool.steals" -> Layers.count tr "exec.pool_steals" v
      | _ -> ())
    (Obs.counters ())

(* Replay one interval as the daemon's controller would on a cache
   miss: over the log window the interval touches (paged), or over the
   reconstructed log (order tier). *)
let replay_one be recon ~window ~replay (pid, iv_id) =
  let iv = be.b_ivs.(pid).(iv_id) in
  let log =
    match recon with
    | Some log -> log
    | None ->
      window (fun () ->
          let hi =
            match iv.Trace.Log.iv_postlog with
            | Some p -> p
            | None -> Store.Segment.pid_entry_count be.b_reader ~pid - 1
          in
          Store.Segment.window be.b_reader ~pid ~lo:(iv.Trace.Log.iv_prelog - 1)
            ~hi)
  in
  replay (fun () -> Ppd.Emulator.replay be.b_eb log ~interval:iv)

(* Hand a replayed outcome to the controller through the fragment
   cache. A faulting interval's outcome is published with its fault
   cleared — the cache refuses faulted outcomes, and the graph never
   reads that field — so assembly consumes it instead of replaying it a
   second time; the rendered answer is still checked. *)
let publish tr be (pid, iv_id) (o : Ppd.Emulator.outcome) =
  Layers.count tr "ppd.replays" 1;
  Layers.count tr "ppd.replay_steps" o.Ppd.Emulator.steps;
  if o.Ppd.Emulator.fault = None then Hashtbl.replace be.b_clean (pid, iv_id) ();
  Ppd.Fragcache.publish be.b_frag ("content", pid, iv_id)
    { o with Ppd.Emulator.fault = None }

(* One request, layer by layer, in the order the daemon works; each
   lower layer runs first so the call above it does only its own work.
   Returns whether the answer equals the reference. *)
let traced_request tr be ~(ref_ : F.reference) req =
  let layer name f = Layers.layer tr name f in
  let line = F.request_line ~id:1 ~handle:1 req in
  ignore (layer "serve.json" (fun () -> Serve.Rpc.parse_request line));
  let recon =
    if be.b_order then
      let log = layer "store.to_log" (fun () -> Store.Segment.to_log be.b_reader) in
      Some (layer "ppd.reconstruct" (fun () -> Ppd.Reconstruct.reconstruct be.b_eb log))
    else None
  in
  let misses = List.filter (fun k -> not (Hashtbl.mem be.b_clean k)) ref_.F.keys in
  (match (be.b_pool, req) with
  | Some pool, F.Replay ->
    (* the daemon's replay runs on its pool; spans stay on this domain *)
    layer "exec.replay_par" (fun () ->
        List.map
          (fun k ->
            ( k,
              Exec.Pool.submit pool (fun () ->
                  replay_one be recon ~window:(fun f -> f ()) ~replay:(fun f -> f ()) k) ))
          misses
        |> List.iter (fun (k, fut) -> publish tr be k (Exec.Pool.await fut)))
  | _ ->
    List.iter
      (fun k ->
        publish tr be k
          (replay_one be recon ~window:(layer "store.window")
             ~replay:(layer "ppd.replay") k))
      misses);
  let root = ref None in
  let ctl =
    layer "ppd.assemble" (fun () ->
        let ctl =
          match recon with
          | Some log -> C.start ~shared:be.b_frag be.b_eb log
          | None -> C.start_paged ~shared:be.b_frag be.b_eb be.b_reader
        in
        (match req with
        | F.Replay -> C.build_intervals_par ctl ref_.F.keys
        | F.Flowback _ ->
          if be.b_nprocs > 0 then root := C.last_event_node ctl ~pid:0
        | F.Race -> ());
        ctl)
  in
  let render () = F.render req ctl ~path:be.b_log ~nprocs:be.b_nprocs in
  let output, fields =
    match req with
    | F.Flowback depth ->
      Option.iter
        (fun r ->
          layer "ppd.flowback" (fun () ->
              ignore (Ppd.Flowback.backward_slice ~max_depth:depth ctl r)))
        !root;
      (layer "serve.render" render, [])
    | F.Replay -> (layer "serve.render" render, [])
    | F.Race ->
      let log =
        match recon with
        | Some log -> log
        | None -> layer "store.to_log" (fun () -> Store.Segment.to_log be.b_reader)
      in
      let pd, st =
        layer "ppd.race" (fun () ->
            let pd = Ppd.Pardyn.of_log be.b_eb.Analysis.Eblock.prog log in
            (pd, Ppd.Race.detect pd))
      in
      ( layer "serve.render" (fun () -> F.race_text pd st),
        [ ("races", J.Int (List.length st.Ppd.Race.races)) ] )
  in
  let st = C.stats ctl in
  ignore
    (layer "serve.json" (fun () ->
         Serve.Rpc.result_line ~id:(J.Int 1)
           (J.Obj
              (fields
              @ [
                  ("output", J.Str output);
                  ("replays", J.Int st.C.replays);
                  ("cacheHits", J.Int st.C.cache_hits);
                  ("cacheMisses", J.Int st.C.cache_misses);
                ]))));
  output = ref_.F.answer

(* Cache hit counts the daemon reports in a response. *)
let count_cache_hits tr line =
  match F.response_output line with
  | Ok (_, r) ->
    let field n =
      Option.value ~default:0 (Option.bind (J.member n r) J.to_int)
    in
    Layers.count tr "ppd.cache_hits" (field "cacheHits");
    Layers.count tr "ppd.cache_misses" (field "cacheMisses")
  | Error _ -> ()

(* A traced op: reset the program's counters, run the decomposition,
   harvest the counters, then run the real op (tracing still on, so its
   time shows the overhead) and return its time. *)
let traced_op run tr ~what ~decompose ~real =
  Obs.reset ();
  let ok = decompose () in
  harvest tr;
  let real_ns = real () in
  Layers.count tr "bench.ops" 1;
  Layers.count tr "bench.op_ns" real_ns;
  check run ~what:(what ^ " (traced decomposition)")
    (if ok then Ok () else Error "answer differs from the reference");
  real_ns

let traced_cold_session run tr ~jobs fx ~log ~refs reqs =
  traced_op run tr ~what:("cold session on " ^ log)
    ~decompose:(fun () ->
      let layer name f = Layers.layer tr name f in
      ignore
        (layer "serve.json" (fun () ->
             Serve.Rpc.parse_request (F.open_line ~id:1 ~log ~program:fx.mpl)));
      let pool =
        if jobs > 1 then Some (layer "exec.pool" (fun () -> Exec.Pool.create ~jobs ()))
        else None
      in
      let prog =
        layer "lang.compile" (fun () ->
            Lang.Compile.compile
              (In_channel.with_open_text fx.mpl In_channel.input_all))
      in
      let eb =
        layer "analysis.eblock" (fun () ->
            Analysis.Eblock.analyze ~policy:F.policy prog)
      in
      let reader = layer "store.open" (fun () -> Store.Segment.open_file log) in
      ignore
        (layer "serve.json" (fun () ->
             Serve.Rpc.result_line ~id:(J.Int 1) (J.Obj [ ("handle", J.Int 1) ])));
      let be = bentry ?pool fx ~log ~eb reader in
      let ok =
        List.for_all
          (fun req -> traced_request tr be ~ref_:(find_ref refs req) req)
          reqs
      in
      Option.iter (fun p -> layer "exec.pool" (fun () -> Exec.Pool.shutdown p)) pool;
      ok)
    ~real:(fun () ->
      snd
        (Layers.whole tr ("cold " ^ fx.prog.F.name) (fun () ->
             ignore (cold_session run ~jobs ~mpl:fx.mpl ~log ~refs reqs))))

(* The record op: compile, analyze, log the run into a segment file. *)
let record_op run ?round (p : F.program) tier path =
  let eb = F.analyze p.F.src in
  fst (record run ?round ~tier p eb path)

let traced_record run tr (p : F.program) tier path =
  traced_op run tr ~what:("record " ^ path)
    ~decompose:(fun () ->
      let layer name f = Layers.layer tr name f in
      let prog = layer "lang.compile" (fun () -> Lang.Compile.compile p.F.src) in
      let eb =
        layer "analysis.eblock" (fun () ->
            Analysis.Eblock.analyze ~policy:F.policy prog)
      in
      let steps, bare_ns =
        Layers.span tr "runtime.run" (fun () ->
            let m =
              Runtime.Machine.create ~sched:F.sched ~max_steps:F.max_steps prog
            in
            ignore (Runtime.Machine.run m);
            Runtime.Machine.nsteps m)
      in
      let (_, log, _), _ =
        Layers.span ~minus:bare_ns tr "trace.log" (fun () ->
            Trace.Logger.run_logged ~sched:F.sched ~max_steps:F.max_steps
              ~tier:(F.log_tier tier) eb)
      in
      layer "store.write" (fun () -> Store.Segment.save path log);
      Layers.count tr "runtime.steps" steps;
      Layers.count tr "trace.log_entries" (Trace.Log.entry_count log);
      Layers.count tr "store.bytes" (Unix.stat path).Unix.st_size;
      true)
    ~real:(fun () ->
      let r, ns =
        Layers.whole tr
          (Printf.sprintf "record %s %s" p.F.name (F.tier_name tier))
          (fun () -> record_op run p tier path)
      in
      check run ~what:("record " ^ path)
        (if F.verify_recording path r then Ok ()
         else Error "saved log fails verification");
      ns)

(* One traced pass through the whole pipeline on a small ledger (2x20):
   record it in both tiers, then a cold session on each log that asks a
   flowback, a replay (on a two-domain pool) and a race. It puts every
   layer in every workload's trace, so a layer the workload's own ops
   never call reads a small measured value, not a constant zero; on the
   layers the ops do call it adds well under 1%. *)
let pipeline_pass run tr =
  let p = ledger ~workers:2 ~rounds:20 run in
  let p = { p with F.name = "pass-" ^ p.F.name } in
  List.iter
    (fun tier -> ignore (traced_record run tr p tier (F.log_path run.dir p tier)))
    [ F.Content; F.Order ];
  let fx = make_fixture run p in
  let reqs = [ F.Flowback 8; F.Replay; F.Race ] in
  List.iter
    (fun tier ->
      let log = log_of run fx tier in
      let refs = references fx ~path:log reqs in
      ignore (traced_cold_session run tr ~jobs:2 fx ~log ~refs reqs))
    [ F.Content; F.Order ]

(* ------------------------------------------------------------------ *)
(* Workloads.                                                           *)
(* ------------------------------------------------------------------ *)

(* What the two run modes need from a set-up workload. *)
type impl = {
  block_len : int;  (** ops in one script block, the exact mix *)
  op : int -> int;  (** k -> latency ns (answer checked) *)
  probe : unit -> unit;  (** run between ops, off the clock *)
  traced : Layers.t -> int -> int;  (** k -> the real op's ns *)
  firsts : int list ref;  (** open-to-first-answer times, ns *)
  dispose : unit -> unit;
}

(* Execution-phase figures for workloads whose ops do not record: one
   probe records the ledger in both tiers, as its own round. *)
let record_probe run =
  let p = ledger run in
  let p = { p with F.name = "probe-" ^ p.F.name } in
  let eb = F.analyze p.F.src in
  let round = ref 0 in
  fun () ->
    incr round;
    List.iter
      (fun tier -> ignore (record run ~round:!round ~tier p eb (F.log_path run.dir p tier)))
      [ F.Content; F.Order ]

(* session-content / session-order: two sessions on one jobs=1 server,
   the client's requests alternating between them, over the ledger's
   log in one tier: 70% flowback at depths 2-64, 15% race, 15% replay.
   The sessions share the daemon's registry entry and fragment cache,
   as two users of one log do. Depth 8 carries the
   middle of the mix and replay its top, so the median and the 90th
   percentile each fall inside one kind of request rather than on the
   gap between two kinds, where a small shift would move them far. *)
let session_block =
  weighted
    [
      (F.Race, 6);
      (F.Flowback 2, 4);
      (F.Flowback 4, 4);
      (F.Flowback 8, 12);
      (F.Flowback 16, 3);
      (F.Flowback 32, 3);
      (F.Flowback 64, 2);
      (F.Replay, 6);
    ]

let session_requests =
  F.Race :: F.Replay :: List.map (fun d -> F.Flowback d) [ 2; 4; 8; 16; 32; 64 ]

type session_env = {
  srv : Serve.Server.t;
  sessions : Serve.Server.session array;
  fx : fixture;
  log : string;
}

let session run tier =
  let setup () =
    let fx = make_fixture run (ledger run) in
    let log = log_of run fx tier in
    let srv = server ~jobs:1 in
    let sessions = Array.init 2 (fun _ -> Serve.Server.session srv) in
    Array.iter
      (fun s ->
        ignore (Serve.Server.handle_line srv s (F.open_line ~id:1 ~log ~program:fx.mpl));
        List.iter
          (fun req ->
            ignore (Serve.Server.handle_line srv s (F.request_line ~id:2 ~handle:1 req)))
          [ F.Flowback 8; F.Race; F.Replay ])
      sessions;
    { srv; sessions; fx; log }
  in
  let dispose env = Serve.Server.shutdown env.srv in
  let env, setup_s = repeat_setup run ~setup ~dispose in
  let refs = references env.fx ~path:env.log session_requests in
  let ask k =
    let req = script ~seed:run.cfg.seed session_block k in
    let t0 = now () in
    let resp =
      Serve.Server.handle_line env.srv env.sessions.(k mod 2)
        (F.request_line ~id:(k + 3) ~handle:1 req)
    in
    (req, resp, now () - t0)
  in
  let op k =
    let req, resp, lat = ask k in
    check_response run ~what:(F.request_name req) ~answer:(find_ref refs req).F.answer resp;
    lat
  in
  let firsts = ref [] in
  let record_probe = record_probe run in
  let probe () =
    firsts := first_answer run env.fx ~log:env.log ~refs :: !firsts;
    record_probe ()
  in
  (* the decomposition's own view of the same log, warmed like the
     daemon's registry entry by a replay of every interval *)
  let be =
    lazy
      (let be = bentry env.fx ~log:env.log ~eb:env.fx.eb (Store.Segment.open_file env.log) in
       ignore (traced_request (Layers.create ()) be ~ref_:(find_ref refs F.Replay) F.Replay);
       be)
  in
  let traced tr k =
    let be = Lazy.force be in
    let req = script ~seed:run.cfg.seed session_block k in
    let ref_ = find_ref refs req in
    traced_op run tr ~what:(F.request_name req)
      ~decompose:(fun () -> traced_request tr be ~ref_ req)
      ~real:(fun () ->
        let (_, resp, lat), _ =
          Layers.whole tr (F.request_name req) (fun () -> ask k)
        in
        check_response run ~what:(F.request_name req) ~answer:ref_.F.answer resp;
        count_cache_hits tr resp;
        lat)
  in
  ( {
      block_len = Array.length session_block;
      op;
      probe;
      traced;
      firsts;
      dispose = (fun () -> dispose env);
    },
    setup_s )

(* cold-open: every op is a fresh jobs=1 server that opens a seeded pick
   among call-heavy logs (1-3k intervals), answers a depth-8 flowback
   and a replay, and shuts down. Nothing is cached. Weights as for the
   sessions: the 4x300 ledger carries the median, the 5x500 ledger the
   90th percentile. Not jobs=2: its worker domains share the host's two
   cores with the client, so its times followed the host's scheduling
   rather than the program, and a one-core speed sample cannot scale
   them (see README). *)
let cold_programs run =
  [
    (F.fib_program 13, 1);
    (F.fib_program 14, 1);
    (F.fib_program 15, 1);
    (ledger run, 4);
    (ledger ~workers:6 ~rounds:250 run, 1);
    (ledger ~workers:5 ~rounds:500 run, 2);
  ]

let cold_requests = [ F.Flowback 8; F.Replay ]

let cold_open run =
  let programs = cold_programs run in
  let setup () =
    let fxs = Array.of_list (List.map (fun (p, _) -> make_fixture run p) programs) in
    (* warm-up: one cold session, answers unchecked (no references yet) *)
    let fx = fxs.(0) in
    let srv = server ~jobs:1 in
    let s = Serve.Server.session srv in
    ignore
      (Serve.Server.handle_line srv s
         (F.open_line ~id:1 ~log:(log_of run fx F.Content) ~program:fx.mpl));
    List.iter
      (fun req ->
        ignore (Serve.Server.handle_line srv s (F.request_line ~id:2 ~handle:1 req)))
      cold_requests;
    Serve.Server.shutdown srv;
    fxs
  in
  let fxs, setup_s = repeat_setup run ~setup ~dispose:ignore in
  let refs =
    Array.map
      (fun fx ->
        let path = log_of run fx F.Content in
        (path, references fx ~path cold_requests))
      fxs
  in
  let block = weighted (List.mapi (fun i (_, w) -> (i, w)) programs) in
  let firsts = ref [] in
  let fixture_of k = script ~seed:run.cfg.seed block k in
  let op k =
    let i = fixture_of k in
    let log, refs = refs.(i) in
    let total, first =
      cold_session run ~jobs:1 ~mpl:fxs.(i).mpl ~log ~refs cold_requests
    in
    firsts := first :: !firsts;
    total
  in
  let traced tr k =
    let i = fixture_of k in
    let log, refs = refs.(i) in
    traced_cold_session run tr ~jobs:1 fxs.(i) ~log ~refs cold_requests
  in
  ( {
      block_len = Array.length block;
      op;
      probe = record_probe run;
      traced;
      firsts;
      dispose = ignore;
    },
    setup_s )

(* record: one client; every op is the execution phase of `ppd log
   --save` for a seeded pick of program and tier. Weights as above: the
   ledger's content log carries the median, matmul the 90th
   percentile. *)
let record_block run =
  let hist =
    { F.name = "hist-4x200x256"; src = Workloads.locked_hist ~workers:4 ~rounds:200 ~cells:256 }
  and matmul = { F.name = "matmul-40"; src = Workloads.matmul 40 }
  and fib = F.fib_program 17 in
  weighted
    [
      ((hist, F.Order), 2);
      ((fib, F.Order), 2);
      ((ledger run, F.Order), 2);
      ((hist, F.Content), 2);
      ((ledger run, F.Content), 6);
      ((fib, F.Content), 2);
      ((matmul, F.Content), 2);
      ((matmul, F.Order), 2);
    ]

let record_wl run =
  let block = record_block run in
  let setup () =
    (* warm-up: one recording of each (program, tier) *)
    Array.iter
      (fun (p, tier) -> ignore (record_op run p tier (F.log_path run.dir p tier)))
      block;
    make_fixture run (ledger run)
  in
  let fx, setup_s = repeat_setup run ~setup ~dispose:ignore in
  let log = log_of run fx F.Content in
  let refs = references fx ~path:log [ F.Flowback 8 ] in
  let op k =
    let p, tier = script ~seed:run.cfg.seed block k in
    let path = F.log_path run.dir p tier in
    let t0 = now () in
    let r = record_op run ~round:(k / Array.length block) p tier path in
    let lat = now () - t0 in
    check run ~what:("record " ^ path)
      (if F.verify_recording path r then Ok ()
       else Error "saved log fails verification");
    lat
  in
  let firsts = ref [] in
  let traced tr k =
    let p, tier = script ~seed:run.cfg.seed block k in
    traced_record run tr p tier (F.log_path run.dir p tier)
  in
  ( {
      block_len = Array.length block;
      op;
      probe = (fun () -> firsts := first_answer run fx ~log ~refs :: !firsts);
      traced;
      firsts;
      dispose = ignore;
    },
    setup_s )

(* ------------------------------------------------------------------ *)
(* Metrics.                                                             *)
(* ------------------------------------------------------------------ *)

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let median xs = percentile 0.5 xs

(* Peak resident set of this process (each workload runs in its own). *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" Fun.id)
  |> Option.fold ~none:0. ~some:(fun kb -> float_of_int kb /. 1024.)

(* Group values by key, keeping first-seen keys' lists. *)
let group key xs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun x ->
      let k = key x in
      Hashtbl.replace tbl k (x :: Option.value ~default:[] (Hashtbl.find_opt tbl k)))
    xs;
  Hashtbl.fold (fun _ g acc -> g :: acc) tbl []

let mean_lat samples =
  float_of_int (List.fold_left (fun a s -> a + s.lat) 0 samples)
  /. float_of_int (max 1 (List.length samples))

(* Closed-loop throughput: 1 / mean latency (Little's law, one client),
   so the benchmark's own answer checks are not service time. The mean
   is taken per complete script block (the exact mix) and the median
   block stands for the run, so a burst of contention from outside
   moves a few blocks, not the result. *)
let req_per_s impl samples =
  let blocks =
    group (fun s -> s.k / impl.block_len) samples
    |> List.filter (fun b -> List.length b = impl.block_len)
  in
  let mean = if blocks = [] then mean_lat samples else median (List.map mean_lat blocks) in
  1e9 /. mean

(* Steps per second of the logged run plus page writes, per round (a
   probe, or a block of record ops); the median round. *)
let record_steps_per_s recordings =
  group fst recordings
  |> List.map (fun rs ->
         let steps, ns =
           List.fold_left
             (fun (s, t) (_, (r : F.recording)) -> (s + r.F.r_steps, t + r.F.r_ns))
             (0, 0) rs
         in
         float_of_int steps /. (float_of_int ns /. 1e9))
  |> median

(* Bytes written per 1000 machine steps in one tier, averaged over the
   programs so the mix of programs a run happens to record cannot move
   it. *)
let bytes_per_kstep recordings tier =
  let ratios =
    List.filter (fun (_, (r : F.recording)) -> r.F.r_tier = tier) recordings
    |> group (fun (_, (r : F.recording)) -> r.F.r_program)
    |> List.map (fun rs ->
           let bytes, steps =
             List.fold_left
               (fun (b, s) (_, (r : F.recording)) -> (b + r.F.r_bytes, s + r.F.r_steps))
               (0, 0) rs
           in
           float_of_int bytes /. (float_of_int steps /. 1000.))
  in
  List.fold_left ( +. ) 0. ratios /. float_of_int (max 1 (List.length ratios))

(* Timings are scaled to the nominal machine speed (see {!Speed}):
   set-up by the speed sampled during set-up, the rest by the timed
   phase's. *)
let end_to_end run impl ~samples ~setup_s =
  let f = Speed.factor run.speed in
  let time v = v /. f and rate v = v *. f in
  let lat_ms = List.map (fun s -> ms s.lat) samples in
  [
    metric "setup_s" "s" (setup_s /. Speed.factor run.setup_speed);
    metric "req_p50_ms" "ms" (time (median lat_ms));
    metric "req_p90_ms" "ms" (time (percentile 0.9 lat_ms));
    metric "req_per_s" "ops/s" (rate (req_per_s impl samples));
    metric "first_answer_ms" "ms" (time (median_int !(impl.firsts) /. 1e6));
    metric "record_steps_per_s" "steps/s" (rate (record_steps_per_s run.recordings));
    metric "log_bytes_per_kstep_content" "B" (bytes_per_kstep run.recordings F.Content);
    metric "log_bytes_per_kstep_order" "B" (bytes_per_kstep run.recordings F.Order);
    metric "peak_rss_mb" "MiB" (peak_rss_mb ());
  ]

let time_layers =
  [
    "lang.compile";
    "analysis.eblock";
    "runtime.run";
    "trace.log";
    "store.write";
    "store.open";
    "store.window";
    "store.to_log";
    "ppd.reconstruct";
    "ppd.replay";
    "exec.replay_par";
    "exec.pool";
    "ppd.assemble";
    "ppd.flowback";
    "ppd.race";
    "serve.render";
    "serve.json";
  ]

let count_layers =
  [
    ("runtime.steps", "count");
    ("trace.log_entries", "count");
    ("store.bytes", "B");
    ("store.page_faults", "count");
    ("ppd.replays", "count");
    ("ppd.replay_steps", "count");
    ("exec.pool_steals", "count");
  ]

let ratio a b = if a + b = 0 then 0. else float_of_int a /. float_of_int (a + b)

(* Per-layer metrics: self time and counts per traced op, plus how much
   of the real ops' time the layers account for. *)
let per_layer tr ~overhead =
  let ops = float_of_int (max 1 (Layers.counted tr "bench.ops")) in
  let per_op v = float_of_int v /. ops in
  List.map
    (fun l -> metric (l ^ "_ms") "ms" (per_op (Layers.self_ns tr l) /. 1e6))
    time_layers
  @ List.map (fun (c, u) -> metric c u (per_op (Layers.counted tr c))) count_layers
  @ [
      metric "store.page_hit_ratio" "fraction"
        (ratio (Layers.counted tr "store.page_hits") (Layers.counted tr "store.page_faults"));
      metric "ppd.cache_hit_ratio" "fraction"
        (ratio (Layers.counted tr "ppd.cache_hits") (Layers.counted tr "ppd.cache_misses"));
      metric "bench.op_ms" "ms" (per_op (Layers.counted tr "bench.op_ns") /. 1e6);
      metric "bench.layer_coverage" "fraction"
        (float_of_int (Layers.total_self_ns tr)
        /. float_of_int (max 1 (Layers.counted tr "bench.op_ns")));
      metric "bench.trace_overhead" "ratio" overhead;
    ]

(* ------------------------------------------------------------------ *)
(* Run modes.                                                           *)
(* ------------------------------------------------------------------ *)

let timed run impl ~setup_s =
  (* execution-phase figures come from the timed phase only *)
  run.recordings <- [];
  let probe () =
    Speed.sample run.speed;
    impl.probe ()
  in
  let samples =
    closed_loop ~probe ~deadline:(deadline_after run.cfg.seconds)
      ~max_ops:run.cfg.max_ops impl.op
  in
  (samples, end_to_end run impl ~samples ~setup_s)

(* The traced run: an untraced baseline, then the pipeline pass and the
   workload's ops with layer spans. Its times are not scaled. *)
let traced run impl ~path =
  let seconds = run.cfg.seconds in
  let base =
    closed_loop ~deadline:(deadline_after (seconds /. 3.)) ~max_ops:run.cfg.max_ops impl.op
  in
  let tr = Layers.create () in
  Obs.enable ();
  let deadline = deadline_after (seconds *. 2. /. 3.) in
  pipeline_pass run tr;
  let real = closed_loop ~deadline ~max_ops:run.cfg.max_ops (impl.traced tr) in
  Obs.disable ();
  let p50 samples = median (List.map (fun s -> ms s.lat) samples) in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (Layers.chrome_trace tr));
  (real, per_layer tr ~overhead:(p50 real /. p50 base))

let run name cfg =
  let dir = F.make_workdir () in
  let run =
    {
      cfg;
      dir;
      attempted = 0;
      failed = 0;
      recordings = [];
      setup_speed = Speed.create ();
      speed = Speed.create ();
    }
  in
  Fun.protect
    ~finally:(fun () -> F.remove_workdir dir)
    (fun () ->
      let impl, setup_s =
        match name with
        | Session_content -> session run F.Content
        | Session_order -> session run F.Order
        | Cold_open -> cold_open run
        | Record -> record_wl run
      in
      let samples, metrics =
        Fun.protect ~finally:impl.dispose (fun () ->
            match cfg.trace with
            | None -> timed run impl ~setup_s
            | Some path -> traced run impl ~path)
      in
      {
        correct = run.failed = 0;
        attempted = run.attempted;
        failed = run.failed;
        samples = List.length samples;
        speed = (if cfg.trace = None then Some (Speed.factor run.speed) else None);
        metrics;
      })
