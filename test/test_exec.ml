(* The lib/exec domain pool (deque, futures) and the parallel emulation
   engine built on it: parallel and serial debugging must produce
   byte-identical dynamic graphs, and a failure in one replay must not
   wedge the pool. *)

module L = Trace.Log

(* ------------------------------------------------------------------ *)
(* Deque.                                                               *)
(* ------------------------------------------------------------------ *)

(* a strict left-to-right take sequence (list literals evaluate
   right-to-left in OCaml) *)
let takes ops = List.map (fun op -> op ()) ops

let test_deque_owner_lifo () =
  let d = Exec.Deque.create () in
  List.iter (fun i -> Exec.Deque.push d i) [ 1; 2; 3 ];
  let pop () = Exec.Deque.pop d in
  Alcotest.(check (list (option int)))
    "pop is LIFO"
    [ Some 3; Some 2; Some 1; None ]
    (takes [ pop; pop; pop; pop ])

let test_deque_thief_fifo () =
  let d = Exec.Deque.create () in
  List.iter (fun i -> Exec.Deque.push d i) [ 1; 2; 3 ];
  let pop () = Exec.Deque.pop d in
  let steal () = Exec.Deque.steal d in
  Alcotest.(check (list (option int)))
    "steal is FIFO, mixed with pop"
    [ Some 1; Some 3; Some 2; None ]
    (takes [ steal; pop; steal; pop ])

let test_deque_grows () =
  let d = Exec.Deque.create () in
  for i = 0 to 99 do
    Exec.Deque.push d i
  done;
  Alcotest.(check int) "length" 100 (Exec.Deque.length d);
  let sum = ref 0 in
  let rec drain () =
    match Exec.Deque.steal d with
    | Some v ->
      sum := !sum + v;
      drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all elements survive growth" 4950 !sum

(* ------------------------------------------------------------------ *)
(* Pool.                                                                *)
(* ------------------------------------------------------------------ *)

let test_pool_futures () =
  Exec.Pool.with_pool ~jobs:3 (fun pool ->
      let futs =
        List.init 50 (fun i -> Exec.Pool.submit pool (fun () -> i * i))
      in
      List.iteri
        (fun i fut ->
          Alcotest.(check int) "future value" (i * i) (Exec.Pool.await fut))
        futs)

(* The satellite requirement: an exception inside one task is confined
   to its future — later tasks run, awaits return, shutdown joins. *)
let test_pool_survives_exception () =
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let before =
        List.init 8 (fun i -> Exec.Pool.submit pool (fun () -> i))
      in
      let bad = Exec.Pool.submit pool (fun () -> failwith "boom") in
      let after =
        List.init 8 (fun i -> Exec.Pool.submit pool (fun () -> i + 100))
      in
      List.iteri
        (fun i fut -> Alcotest.(check int) "before" i (Exec.Pool.await fut))
        before;
      (match Exec.Pool.await bad with
      | _ -> Alcotest.fail "await of a failed task must raise"
      | exception Failure m -> Alcotest.(check string) "message" "boom" m);
      List.iteri
        (fun i fut ->
          Alcotest.(check int) "after" (i + 100) (Exec.Pool.await fut))
        after)

let test_pool_shutdown_drains () =
  let pool = Exec.Pool.create ~jobs:2 () in
  let futs = List.init 20 (fun i -> Exec.Pool.submit pool (fun () -> i)) in
  Exec.Pool.shutdown pool;
  Exec.Pool.shutdown pool (* idempotent *);
  List.iteri
    (fun i fut ->
      Alcotest.(check int) "queued work completes" i (Exec.Pool.await fut))
    futs;
  match Exec.Pool.submit pool (fun () -> 0) with
  | _ -> Alcotest.fail "submit after shutdown must be rejected"
  | exception Invalid_argument _ -> ()

(* The regression: a second concurrent [shutdown] caller used to see
   [closing = true] and return immediately, while the first caller was
   still joining the worker domains — so the late caller could observe
   queued tasks mid-flight. Now every caller blocks until the join
   completes: the moment any closer's [shutdown] returns, all queued
   work has fully finished. *)
let test_pool_concurrent_shutdown () =
  for _ = 1 to 25 do
    let pool = Exec.Pool.create ~jobs:2 () in
    let futs =
      List.init 32 (fun i ->
          Exec.Pool.submit pool (fun () ->
              let s = ref 0 in
              for j = 1 to 1_000 do
                s := !s + (i * j)
              done;
              !s))
    in
    let closer () =
      Domain.spawn (fun () ->
          Exec.Pool.shutdown pool;
          List.for_all
            (fun f ->
              match Exec.Pool.peek f with
              | Exec.Pool.Done _ -> true
              | Exec.Pool.Pending | Exec.Pool.Failed _ -> false)
            futs)
    in
    let d1 = closer () in
    let d2 = closer () in
    let ok1 = Domain.join d1 in
    let ok2 = Domain.join d2 in
    Alcotest.(check bool)
      "every shutdown caller returned only after the queue drained" true
      (ok1 && ok2)
  done

(* The regression: [peek] used to re-raise a failed task's exception on
   every call; a status poll must report the failure without raising
   (the exception surfaces exactly once, via [await]). *)
let test_pool_peek_no_raise () =
  Exec.Pool.with_pool ~jobs:1 (fun pool ->
      let ok = Exec.Pool.submit pool (fun () -> 42) in
      Alcotest.(check int) "await ok" 42 (Exec.Pool.await ok);
      (match Exec.Pool.peek ok with
      | Exec.Pool.Done v -> Alcotest.(check int) "peek done" 42 v
      | Exec.Pool.Pending | Exec.Pool.Failed _ ->
        Alcotest.fail "awaited future must peek as Done");
      let bad = Exec.Pool.submit pool (fun () -> failwith "peeked") in
      let rec settle () =
        match Exec.Pool.peek bad with
        | Exec.Pool.Pending ->
          Domain.cpu_relax ();
          settle ()
        | st -> st
      in
      (match settle () with
      | Exec.Pool.Failed (Failure m, _) ->
        Alcotest.(check string) "failure captured" "peeked" m
      | Exec.Pool.Failed _ -> Alcotest.fail "wrong exception in Failed"
      | Exec.Pool.Done _ -> Alcotest.fail "task should have failed"
      | Exec.Pool.Pending -> assert false);
      (* repeated peeks still do not raise *)
      (match Exec.Pool.peek bad with
      | Exec.Pool.Failed _ -> ()
      | _ -> Alcotest.fail "state must remain Failed");
      match Exec.Pool.await bad with
      | _ -> Alcotest.fail "await of a failed task must raise"
      | exception Failure m -> Alcotest.(check string) "await raises" "peeked" m)

(* The satellite regression: [await] from inside a pool task was
   documented-forbidden but silently risked deadlock (the worker waits
   on a future only another — possibly the same — worker can fill).
   It must now fail fast with Invalid_argument instead. *)
let test_pool_await_inside_task_rejected () =
  Exec.Pool.with_pool ~jobs:1 (fun pool ->
      let inner = Exec.Pool.submit pool (fun () -> 1) in
      let outer =
        Exec.Pool.submit pool (fun () -> Exec.Pool.await inner)
      in
      (match Exec.Pool.await outer with
      | _ -> Alcotest.fail "await inside a task must raise"
      | exception Invalid_argument m ->
        Alcotest.(check bool) "message names the hazard" true
          (Util.contains ~sub:"inside a pool task" m));
      (* the worker survives to run later tasks, and await still works
         on the caller's domain *)
      let again = Exec.Pool.submit pool (fun () -> 99) in
      Alcotest.(check int) "pool alive" 99 (Exec.Pool.await again))

(* ------------------------------------------------------------------ *)
(* Parallel = serial graph construction.                                *)
(* ------------------------------------------------------------------ *)

let all_keys ctl nprocs =
  List.concat
    (List.init nprocs (fun pid ->
         List.init
           (Array.length (Ppd.Controller.intervals ctl ~pid))
           (fun iv_id -> (pid, iv_id))))

let dump ctl =
  Format.asprintf "%a" Ppd.Dyn_graph.pp (Ppd.Controller.graph ctl)

let logged src =
  let prog = Lang.Compile.compile src in
  let eb = Analysis.Eblock.analyze prog in
  let _, log, _ = Trace.Logger.run_logged eb in
  (eb, log)

(* Batch-build every interval serially, or on a pool of [jobs] domains:
   the full deterministic graph dump and the assembly statistics. *)
let build_all ?jobs eb log =
  let build pool =
    let ctl = Ppd.Controller.start ?pool eb log in
    Ppd.Controller.build_intervals_par ctl (all_keys ctl log.L.nprocs);
    let st = Ppd.Controller.stats ctl in
    (dump ctl, st.Ppd.Controller.replays, st.Ppd.Controller.replay_steps)
  in
  match jobs with
  | None -> build None
  | Some jobs -> Exec.Pool.with_pool ~jobs (fun pool -> build (Some pool))

let par_eq_serial src =
  let eb, log = logged src in
  build_all eb log = build_all ~jobs:3 eb log

let test_par_eq_serial_fixed () =
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) name true (par_eq_serial src))
    [
      ("fig61", Workloads.fig61);
      ("sv_race", Workloads.sv_race);
      ("fixed_bank", Workloads.fixed_bank);
      ("rpc", Workloads.rpc);
      ("ring", Workloads.token_ring ~procs:4 ~rounds:3);
      ("config", Workloads.config_pipeline ~workers:4 ~rounds:6);
    ]

(* Same equality through the demand-paged segment reader: pool workers
   decode pages concurrently through the sharded LRU. *)
let test_par_eq_serial_paged () =
  let eb, log = logged (Workloads.config_pipeline ~workers:4 ~rounds:8) in
  let path = Filename.temp_file "ppd_exec" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Store.Segment.save path log;
      let serial = Ppd.Controller.start eb log in
      Ppd.Controller.build_intervals_par serial
        (all_keys serial log.L.nprocs);
      let d1 = dump serial in
      let d2 =
        Exec.Pool.with_pool ~jobs:4 (fun pool ->
            let r = Store.Segment.open_file path in
            let ctl = Ppd.Controller.start_paged ~pool eb r in
            Ppd.Controller.build_intervals_par ctl
              (all_keys ctl log.L.nprocs);
            dump ctl)
      in
      Alcotest.(check string) "paged parallel = in-memory serial" d1 d2)

(* An emulator exception inside a pooled replay surfaces at the await
   in [build_interval] (with its message intact), and neither the pool
   nor the controller wedges: the other intervals still assemble. *)
let test_emulator_exception_no_deadlock () =
  let eb, log = logged Workloads.fixed_bank in
  (* corrupt one worker-process sync record so its interval's replay
     hits a validation mismatch *)
  let corrupted = ref false in
  Array.iteri
    (fun pid entries ->
      if pid > 0 && not !corrupted then
        Array.iteri
          (fun i e ->
            match e with
            | L.Sync ({ sid = Some s; _ } as r) when not !corrupted ->
              entries.(i) <-
                L.Sync { r with sid = Some (if s = 0 then 1 else 0) };
              corrupted := true
            | _ -> ())
          entries)
    log.L.entries;
  Alcotest.(check bool) "found a sync record to corrupt" true !corrupted;
  Exec.Pool.with_pool ~jobs:2 (fun pool ->
      let ctl = Ppd.Controller.start ~pool eb log in
      let keys = all_keys ctl log.L.nprocs in
      (match Ppd.Controller.build_intervals_par ctl keys with
      | () -> Alcotest.fail "expected a replay mismatch"
      | exception Ppd.Emulator.Replay_mismatch _ -> ());
      (* the pool is still alive: the untouched process's interval
         builds, and fresh tasks run *)
      ignore (Ppd.Controller.build_interval ctl ~pid:0 ~iv_id:0);
      let fut = Exec.Pool.submit pool (fun () -> 7) in
      Alcotest.(check int) "pool still serves" 7 (Exec.Pool.await fut))

(* The random parallel-program corpus may race, and §6 assumes
   race-freedom. A run of it gives the analysed program, the log, and
   whether the race detector finds the execution race-free, judged on
   the run's own observer-built graph. *)
let logged_random ~seed ~sseed =
  let prog = Lang.Compile.compile (Gen.parallel ~protect:`Sometimes seed) in
  let eb = Analysis.Eblock.analyze prog in
  let obs = Ppd.Pardyn.observer prog in
  let _, log, _ =
    Trace.Logger.run_logged
      ~sched:(Runtime.Sched.Random_seed sseed)
      ~extra_hooks:(Ppd.Pardyn.factory obs) eb
  in
  (eb, log, Ppd.Race.is_race_free (Ppd.Pardyn.finish obs))

(* [None] when replay diverges from the log (PPD062), which only a
   racy execution may cause. *)
let replayed f =
  match f () with
  | v -> Some v
  | exception Ppd.Emulator.Replay_mismatch _ -> None

(* The contract: on a race-free execution, -j1 and -j4 build
   byte-identical graphs; on a racy one, they either build identical
   graphs or both raise [Replay_mismatch]. *)
let par_serial_prop =
  Util.qtest ~count:15 "parallel = serial graphs on random programs"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let eb, log, race_free = logged_random ~seed ~sseed in
      let serial = replayed (fun () -> build_all eb log) in
      serial = replayed (fun () -> build_all ~jobs:4 eb log)
      && (serial <> None || not race_free))

(* ------------------------------------------------------------------ *)
(* Assembly-order independence.                                         *)
(* ------------------------------------------------------------------ *)

(* An id-free picture of a graph, so graphs assembled in different
   orders compare. A node is named by its event, or, for parameter,
   external and hole nodes, which have none, by its kind, label and
   value plus the names of its neighbours. The picture lists every node
   with its owner and the multiset of its incoming edges. *)
let picture g =
  let module DG = Ppd.Dyn_graph in
  let base i =
    let nd = DG.node g i in
    let ev =
      match nd.DG.nd_ref with
      | Some r -> Printf.sprintf "p%d@%d " r.Runtime.Event.epid r.eseq
      | None -> ""
    in
    ev
    ^ Format.asprintf "%a" DG.pp_node { nd with DG.nd_id = 0; nd_owner = None }
  in
  let name i =
    match (DG.node g i).DG.nd_ref with
    | Some _ -> base i
    | None ->
      let around =
        List.sort compare
          (List.map (fun (j, _) -> base j) (DG.preds g i @ DG.succs g i))
      in
      base i ^ " {" ^ String.concat "; " around ^ "}"
  in
  let kind = function
    | DG.Flow -> "flow"
    | DG.Data v -> "data:" ^ v.Lang.Prog.vname
    | DG.Dparam i -> Printf.sprintf "param:%d" i
    | DG.Control -> "ctrl"
    | DG.Sync -> "sync"
  in
  List.sort compare
    (List.init (DG.nnodes g) (fun i ->
         ( name i,
           Option.map name (DG.node g i).DG.nd_owner,
           List.sort compare
             (List.map (fun (j, k) -> name j ^ " " ^ kind k) (DG.preds g i)) )))

let shuffle seed l =
  let st = Random.State.make [| seed |] in
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

(* Assemble every interval in forward, reverse and shuffled order: the
   same nodes with the same incoming edges, sync edges included (in
   reverse order a link's source interval is built after its target). *)
let assembled eb log order =
  let ctl = Ppd.Controller.start eb log in
  Ppd.Controller.build_intervals_par ctl (order (all_keys ctl log.L.nprocs));
  picture (Ppd.Controller.graph ctl)

let order_independent ~seed src =
  let eb, log = logged src in
  let forward = assembled eb log Fun.id in
  forward = assembled eb log List.rev
  && forward = assembled eb log (shuffle seed)

let test_order_independent_fixed () =
  List.iter
    (fun (name, src) ->
      Alcotest.(check bool) name true (order_independent ~seed:7 src))
    [
      ("fig61", Workloads.fig61);
      ("sv_race", Workloads.sv_race);
      ("fixed_bank", Workloads.fixed_bank);
      ("rpc", Workloads.rpc);
      ("ring", Workloads.token_ring ~procs:4 ~rounds:3);
      ("config", Workloads.config_pipeline ~workers:4 ~rounds:6);
      ("prodcons", Workloads.producer_consumer ~items:5 ~cap:0);
    ]

(* The same contract for assembly order: every order builds the same
   picture, or, on a racy execution only, every order raises
   [Replay_mismatch]. *)
let order_independent_prop =
  Util.qtest ~count:15 "assembly order independence on random programs"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 1_000) int)
    (fun (seed, sseed, order_seed) ->
      let eb, log, race_free = logged_random ~seed ~sseed in
      let outcome order = replayed (fun () -> assembled eb log order) in
      let forward = outcome Fun.id in
      forward = outcome List.rev
      && forward = outcome (shuffle order_seed)
      && (forward <> None || not race_free))

let suite =
  ( "exec",
    [
      Alcotest.test_case "deque owner LIFO" `Quick test_deque_owner_lifo;
      Alcotest.test_case "deque thief FIFO" `Quick test_deque_thief_fifo;
      Alcotest.test_case "deque growth" `Quick test_deque_grows;
      Alcotest.test_case "pool futures" `Quick test_pool_futures;
      Alcotest.test_case "pool survives task exception" `Quick
        test_pool_survives_exception;
      Alcotest.test_case "pool shutdown drains queue" `Quick
        test_pool_shutdown_drains;
      Alcotest.test_case "concurrent shutdown blocks until joined" `Quick
        test_pool_concurrent_shutdown;
      Alcotest.test_case "peek reports failure without raising" `Quick
        test_pool_peek_no_raise;
      Alcotest.test_case "await inside a task fails fast" `Quick
        test_pool_await_inside_task_rejected;
      Alcotest.test_case "parallel = serial (fixed corpus)" `Quick
        test_par_eq_serial_fixed;
      Alcotest.test_case "parallel = serial (paged reader)" `Quick
        test_par_eq_serial_paged;
      Alcotest.test_case "emulator exception does not wedge the pool" `Quick
        test_emulator_exception_no_deadlock;
      par_serial_prop;
      Alcotest.test_case "assembly order independence (fixed corpus)" `Quick
        test_order_independent_fixed;
      order_independent_prop;
    ] )
