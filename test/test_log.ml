(* Log structure: entries, interval nesting, and the log file's magic. *)

module L = Trace.Log

let test_interval_nesting () =
  let eb, halt, log, _tr, _m = Util.run_instrumented (Workloads.deep_calls ~depth:5) in
  ignore eb;
  (match halt with Runtime.Machine.Finished -> () | h -> Alcotest.failf "%s" (Util.halt_name h));
  let ivs = L.intervals log ~pid:0 in
  (* main + f4..f0 *)
  Alcotest.(check int) "six intervals" 6 (Array.length ivs);
  (* each nested interval's range is inside its parent's *)
  Array.iter
    (fun (iv : L.interval) ->
      match iv.iv_parent with
      | None -> ()
      | Some pid_iv ->
        let parent = ivs.(pid_iv) in
        Alcotest.(check bool) "child starts after parent" true
          (iv.iv_seq_start > parent.iv_seq_start);
        (match (iv.iv_seq_end, parent.iv_seq_end) with
        | Some ce, Some pe ->
          Alcotest.(check bool) "child ends before parent" true (ce <= pe)
        | _ -> Alcotest.fail "closed run must close all intervals");
        Alcotest.(check bool) "parent lists child" true
          (List.mem iv.iv_id parent.iv_children))
    ivs;
  (* exactly one root *)
  Alcotest.(check int) "one root" 1
    (Array.to_list ivs |> List.filter (fun iv -> iv.L.iv_parent = None) |> List.length)

let test_find_enclosing () =
  let _eb, _h, log, _tr, _m = Util.run_instrumented (Workloads.deep_calls ~depth:3) in
  let ivs = L.intervals log ~pid:0 in
  (* seq 0 is in the root; the innermost block covers its own start *)
  (match L.find_enclosing ivs ~seq:0 with
  | Some iv -> Alcotest.(check bool) "root" true (iv.L.iv_parent = None)
  | None -> Alcotest.fail "no interval for seq 0");
  Array.iter
    (fun (iv : L.interval) ->
      match L.find_enclosing ivs ~seq:iv.iv_seq_start with
      | Some found -> Alcotest.(check int) "innermost at start" iv.iv_id found.L.iv_id
      | None -> Alcotest.fail "uncovered seq")
    ivs

let test_open_interval_on_fault () =
  let _eb, halt, log, _tr, _m = Util.run_instrumented Workloads.buggy_min in
  (match halt with
  | Runtime.Machine.Fault _ -> ()
  | h -> Alcotest.failf "expected fault, got %s" (Util.halt_name h));
  let ivs = L.intervals log ~pid:0 in
  let opens = Array.to_list ivs |> List.filter (fun iv -> iv.L.iv_seq_end = None) in
  (* main's interval never closed *)
  Alcotest.(check int) "one open interval" 1 (List.length opens);
  Alcotest.(check bool) "the open one is the root" true
    ((List.hd opens).L.iv_parent = None)

let test_log_much_smaller_than_trace () =
  let _eb, _h, log, tr, _m = Util.run_instrumented (Workloads.matmul 6) in
  let entries = L.entry_count log in
  let events = Oracle.Full_trace.nevents tr in
  Alcotest.(check bool)
    (Printf.sprintf "log (%d) << trace (%d)" entries events)
    true
    (entries * 10 < events)

(* The retired v1 magic, a truncated magic and a foreign file: every
   entry point of the store refuses each one as unreadable, with a
   reason that names what is wrong, and never misreads it. *)
let test_io_bad_magic () =
  let path = Filename.temp_file "ppd_test" ".log" in
  let out = Filename.temp_file "ppd_test" ".out" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.remove out)
    (fun () ->
      List.iter
        (fun (name, bytes, sub) ->
          Util.overwrite path bytes;
          let refused what f =
            match f path with
            | () -> Alcotest.failf "%s: %s accepted it" name what
            | exception Store.Segment.Unreadable { reason; _ } ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s says %S" name what sub)
                true
                (Util.contains ~sub reason)
          in
          refused "open_file" (fun p -> ignore (Store.Segment.open_file p));
          refused "verify" (fun p -> ignore (Store.Segment.verify p));
          refused "fsck" (fun p -> ignore (Store.Segment.fsck p));
          refused "repair" (fun p -> ignore (Store.Segment.repair p ~out)))
        [
          ( "v1 magic, garbage payload",
            "PPDLOG1\n" ^ String.init 64 (fun i -> Char.chr (i * 7 mod 256)),
            "unsupported log format version '1'" );
          ( "v1 magic, empty body",
            "PPDLOG1\n",
            "unsupported log format version '1'" );
          ("truncated magic", "PPDL", "shorter than the 8-byte magic");
          ("foreign file", "not a log", "bad magic");
        ])

let test_sync_records_present () =
  let _eb, _h, log, _tr, _m = Util.run_instrumented Workloads.fig61 in
  (* every sync event of every process appears as a Sync entry *)
  let count_kind pred =
    Array.fold_left
      (fun acc entries ->
        acc
        + (Array.to_list entries
          |> List.filter (fun e ->
                 match e with
                 | L.Sync { data = L.S_kind k; _ } -> pred k
                 | _ -> false)
          |> List.length))
      0 log.L.entries
  in
  Alcotest.(check int) "sends" 2
    (count_kind (function Runtime.Event.K_send _ -> true | _ -> false));
  Alcotest.(check int) "recvs" 2
    (count_kind (function Runtime.Event.K_recv _ -> true | _ -> false));
  Alcotest.(check int) "unblocks" 2
    (count_kind (function Runtime.Event.K_send_unblocked _ -> true | _ -> false));
  Alcotest.(check int) "spawns" 2
    (count_kind (function Runtime.Event.K_spawn _ -> true | _ -> false));
  Alcotest.(check int) "joins" 2
    (count_kind (function Runtime.Event.K_join _ -> true | _ -> false))

let interval_wellformed_prop =
  Util.qtest ~count:40 "random programs: intervals well-formed"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1000))
    (fun (seed, sseed) ->
      let src = Gen.parallel ~protect:`Always seed in
      let _eb, _h, log, _tr, _m =
        Util.run_instrumented ~sched:(Runtime.Sched.Random_seed sseed) src
      in
      let ok = ref true in
      for pid = 0 to log.L.nprocs - 1 do
        let ivs = L.intervals log ~pid in
        Array.iter
          (fun (iv : L.interval) ->
            (match iv.L.iv_seq_end with
            | Some e -> if e < iv.L.iv_seq_start then ok := false
            | None -> ());
            match iv.L.iv_parent with
            | Some par ->
              let parent = ivs.(par) in
              if iv.L.iv_seq_start <= parent.L.iv_seq_start then ok := false
            | None -> ())
          ivs
      done;
      !ok)

(* The regression: the logger's per-pid tables used to regrow by exactly
   one slot per new pid (O(pids²) copying overall). Growth is geometric
   now — O(log pids) regrowths, counted by the obs layer — and [finish]
   trims the slack, so the emitted log never reports phantom
   processes. *)
let test_logger_geometric_growth () =
  Obs.enable ();
  Obs.reset ();
  let _eb, halt, log, _tr, _m =
    Util.run_instrumented (Workloads.token_ring ~procs:12 ~rounds:2)
  in
  let regrowths = List.assoc "trace.pid_regrowths" (Obs.counters ()) in
  Obs.disable ();
  Obs.reset ();
  (match halt with
  | Runtime.Machine.Finished -> ()
  | h -> Alcotest.failf "expected finish, got %s" (Util.halt_name h));
  (* 11 spawned nodes plus main *)
  Alcotest.(check int) "many processes spawned" 12 log.L.nprocs;
  Alcotest.(check int) "entry rows match the logical process count"
    log.L.nprocs
    (Array.length log.L.entries);
  Alcotest.(check int) "stop marks match the logical process count"
    log.L.nprocs
    (Array.length log.L.stops);
  Array.iteri
    (fun pid entries ->
      Alcotest.(check bool)
        (Printf.sprintf "pid %d actually logged" pid)
        true
        (Array.length entries > 0))
    log.L.entries;
  (* doubling from the initial single slot: 1→2→4→8→16 covers twelve
     pids in four regrowths; the old exact-fit growth needed eleven *)
  Alcotest.(check bool)
    (Printf.sprintf "regrowth count %d is logarithmic" regrowths)
    true
    (regrowths >= 1 && regrowths <= 5)

let suite =
  ( "log",
    [
      Alcotest.test_case "interval nesting" `Quick test_interval_nesting;
      Alcotest.test_case "find_enclosing" `Quick test_find_enclosing;
      Alcotest.test_case "open interval on fault" `Quick test_open_interval_on_fault;
      Alcotest.test_case "log much smaller than trace" `Quick
        test_log_much_smaller_than_trace;
      Alcotest.test_case "bad magic rejected" `Quick test_io_bad_magic;
      Alcotest.test_case "sync records present" `Quick test_sync_records_present;
      Alcotest.test_case "geometric pid-table growth, exact nprocs" `Quick
        test_logger_geometric_growth;
      interval_wellformed_prop;
    ] )
