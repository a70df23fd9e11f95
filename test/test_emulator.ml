(* The emulation package: replay fidelity. This is the paper's central
   correctness claim — re-executing one e-block from its prelog
   regenerates exactly the events of the original execution, for
   parallel programs, with nested e-blocks skipped via postlogs. *)

let replay_matches ?sched src =
  let eb, _halt, log, tr, _m = Util.run_instrumented ?sched src in
  Util.check_replay_equivalence eb log tr

let fixed name ?sched src =
  Alcotest.test_case name `Quick (fun () ->
      let n = replay_matches ?sched src in
      Alcotest.(check bool) "checked at least one interval" true (n >= 1))

let test_inlined_leaves_replayed () =
  (* with inlining, callee events appear inside the caller's replay *)
  let src = Workloads.deep_calls ~depth:4 in
  let eb, _h, log, tr, _m =
    Util.run_instrumented ~policy:{ Analysis.Eblock.leaf_inline_max_stmts = 3; loop_block_min_body = 0 } src
  in
  let n = Util.check_replay_equivalence eb log tr in
  (* f0 is inlined: fewer intervals than functions *)
  Alcotest.(check bool) "fewer intervals" true
    (n < Array.length (Trace.Log.intervals log ~pid:0) + 1
    || n = Array.length (Trace.Log.intervals log ~pid:0));
  Alcotest.(check int) "f0 inlined away" 4
    (Array.length (Trace.Log.intervals log ~pid:0))

let test_fault_reproduced () =
  let eb, halt, log, _tr, _m = Util.run_instrumented Workloads.buggy_min in
  (match halt with
  | Runtime.Machine.Fault { msg; _ } ->
    Alcotest.(check bool) "assert fault" true (Util.contains ~sub:"assert" msg)
  | h -> Alcotest.failf "expected fault, got %s" (Util.halt_name h));
  let ivs = Trace.Log.intervals log ~pid:0 in
  let open_iv =
    Array.to_list ivs |> List.find (fun iv -> iv.Trace.Log.iv_seq_end = None)
  in
  let o = Ppd.Emulator.replay eb log ~interval:open_iv in
  match o.Ppd.Emulator.fault with
  | Some msg ->
    Alcotest.(check bool) "same fault" true (Util.contains ~sub:"assert" msg)
  | None -> Alcotest.fail "replay should reproduce the fault"

let test_output_regenerated () =
  let src = Workloads.foo3 in
  let eb, _h, log, _tr, m = Util.run_instrumented src in
  let ivs = Trace.Log.intervals log ~pid:0 in
  let root =
    Array.to_list ivs |> List.find (fun iv -> iv.Trace.Log.iv_parent = None)
  in
  let o = Ppd.Emulator.replay eb log ~interval:root in
  (* foo3's prints happen in main's block *)
  Alcotest.(check string) "prints regenerated" (Runtime.Machine.output m)
    o.Ppd.Emulator.output

let test_tampered_log_detected () =
  (* §5.5: with invalid log entries, replay must not silently succeed —
     corrupt a recv value and watch the validation trip on a later
     event or produce different events *)
  let eb, _h, log, tr, _m = Util.run_instrumented Workloads.fig61 in
  let tampered_entries =
    Array.map
      (fun entries ->
        Array.map
          (fun e ->
            match e with
            | Trace.Log.Sync
                {
                  sid;
                  seq;
                  step_at;
                  data = Trace.Log.S_kind (Runtime.Event.K_recv { chan; value; src });
                } ->
              Trace.Log.Sync
                {
                  sid;
                  seq;
                  step_at;
                  data =
                    Trace.Log.S_kind
                      (Runtime.Event.K_recv { chan; value = value + 1000; src });
                }
            | e -> e)
          entries)
      log.Trace.Log.entries
  in
  let tampered = { log with Trace.Log.entries = tampered_entries } in
  (* any failure signal counts: a Replay_mismatch or divergent events *)
  let detected =
    match Util.check_replay_equivalence eb tampered tr with
    | _ -> false
    | exception _ -> true
  in
  Alcotest.(check bool) "tampering detected" true detected

let random_sequential =
  Util.qtest ~count:40 "random sequential programs replay exactly"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed -> replay_matches (Gen.sequential seed) >= 1)

let random_parallel =
  Util.qtest ~count:40 "random race-free parallel programs replay exactly"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      replay_matches
        ~sched:(Runtime.Sched.Random_seed sseed)
        (Gen.parallel ~protect:`Always seed)
      >= 1)

let random_parallel_inlined =
  Util.qtest ~count:20 "replay fidelity survives leaf inlining"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let src = Gen.sequential seed in
      let eb, _h, log, tr, _m =
        Util.run_instrumented
          ~policy:{ Analysis.Eblock.leaf_inline_max_stmts = 8; loop_block_min_body = 0 } src
      in
      Util.check_replay_equivalence eb log tr >= 1)

let random_large_programs =
  Util.qtest ~count:10 "large random programs replay exactly"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let src = Gen.sequential ~nfuncs:6 ~budget:20 seed in
      let eb, _h, log, tr, _m =
        Util.run_instrumented ~sched:(Runtime.Sched.Random_seed sseed) src
      in
      Util.check_replay_equivalence eb log tr >= 1)

(* A skipped nested e-block is described only when the log does not
   match; the two texts stay as they were when every skip described its
   block up front. *)
let test_nested_mismatch_texts () =
  let src =
    "shared int g = 0;\n\
     func add(a, b) { return a + b; }\n\
     func f() { g = g + 1; return g; }\n\
     func main() { var x = f(); var y = add(x, 1); print(y); }\n"
  in
  let eb, _h, log, _tr, _m =
    Util.run_instrumented
      ~policy:{ Analysis.Eblock.leaf_inline_max_stmts = 0; loop_block_min_body = 0 }
      src
  in
  let prog = eb.Analysis.Eblock.prog in
  let fid name =
    let rec go i = if prog.Lang.Prog.funcs.(i).fname = name then i else go (i + 1) in
    go 0
  in
  let entries = log.Trace.Log.entries.(0) in
  let nested =
    let rec go i =
      match entries.(i) with
      | Trace.Log.Prelog { block = Trace.Log.Bfunc b; _ } when b = fid "f" -> i
      | _ -> go (i + 1)
    in
    go 0
  in
  let root =
    Array.to_list (Trace.Log.intervals log ~pid:0)
    |> List.find (fun iv -> iv.Trace.Log.iv_parent = None)
  in
  let replay_with es =
    let log = { log with entries = [| es |] } in
    match Ppd.Emulator.replay eb log ~interval:root with
    | _ -> Alcotest.fail "the tampered log replayed"
    | exception Ppd.Emulator.Replay_mismatch m -> m
  in
  let swapped = Array.copy entries in
  let seq_at = Trace.Log.entry_seq_at entries.(nested) in
  swapped.(nested) <-
    Trace.Log.Sync_prelog
      {
        point = Trace.Log.At_inlined_entry (fid "add");
        seq_at;
        step_at = Trace.Log.entry_step_at entries.(nested);
        vals = [];
      };
  Alcotest.(check string) "wrong entry"
    (Printf.sprintf
       "expected nested prelog of f%d, found sync-prelog (inlined add) @%d {}"
       (fid "f") seq_at)
    (replay_with swapped);
  Alcotest.(check string) "no postlog"
    (Printf.sprintf "nested e-block f%d has no matching postlog" (fid "f"))
    (replay_with (Array.sub entries 0 (nested + 1)))

(* Every replay records one [replay] span whose arg names the interval
   as [p<pid>#<iv>], the form the e2e benchmark parses to find the
   intervals a request replays; a replay with Obs disabled records
   nothing, since it builds no arg. *)
let test_replay_span_arg () =
  let eb, _h, log, _tr, _m = Util.run_instrumented Workloads.fig61 in
  let replay_spans () =
    List.filter (fun (sp : Obs.span) -> sp.Obs.sp_cat = "replay") (Obs.spans ())
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let checked = ref 0 in
      for pid = 0 to log.Trace.Log.nprocs - 1 do
        Array.iter
          (fun (iv : Trace.Log.interval) ->
            Obs.enable ();
            Obs.reset ();
            ignore (Ppd.Emulator.replay eb log ~interval:iv);
            let want = Printf.sprintf "p%d#%d" pid iv.Trace.Log.iv_id in
            (match replay_spans () with
            | [ sp ] ->
              Alcotest.(check string) "span name" "replay" sp.Obs.sp_name;
              Alcotest.(check (option string)) "span arg" (Some want)
                sp.Obs.sp_arg;
              Alcotest.(check (option (pair int int)))
                "the benchmark's parse" (Some (pid, iv.Trace.Log.iv_id))
                (Option.bind sp.Obs.sp_arg (fun a ->
                     Scanf.sscanf_opt a "p%d#%d%!" (fun p i -> (p, i))))
            | l -> Alcotest.failf "%s: %d replay spans" want (List.length l));
            Obs.disable ();
            Obs.reset ();
            ignore (Ppd.Emulator.replay eb log ~interval:iv);
            Alcotest.(check int) (want ^ ": no span while disabled") 0
              (List.length (Obs.spans ()));
            incr checked)
          (Trace.Log.intervals log ~pid)
      done;
      Alcotest.(check bool) "several processes' intervals" true (!checked > 2))

let suite =
  ( "emulator",
    [
      fixed "fig41" Workloads.fig41;
      fixed "foo3" Workloads.foo3;
      fixed "fig61 (rendezvous)" Workloads.fig61;
      fixed "racy bank under RR" Workloads.racy_bank;
      fixed "fixed bank" Workloads.fixed_bank;
      fixed "counter with mutex" (Workloads.counter ~workers:3 ~incs:6 ~mutex:true);
      fixed "producer/consumer bounded" (Workloads.producer_consumer ~items:12 ~cap:3);
      fixed "producer/consumer rendezvous"
        (Workloads.producer_consumer ~items:8 ~cap:0);
      fixed "token ring" (Workloads.token_ring ~procs:4 ~rounds:2);
      fixed "deep calls (nested skipping)" (Workloads.deep_calls ~depth:8);
      fixed "fib (recursive nesting)" (Workloads.fib 8);
      fixed "matmul (loops + arrays)" (Workloads.matmul 5);
      fixed "branchy" (Workloads.branchy ~rounds:20);
      fixed "random seed schedule" ~sched:(Runtime.Sched.Random_seed 1234)
        (Workloads.token_ring ~procs:3 ~rounds:3);
      Alcotest.test_case "leaf inlining" `Quick test_inlined_leaves_replayed;
      Alcotest.test_case "fault reproduced" `Quick test_fault_reproduced;
      Alcotest.test_case "output regenerated" `Quick test_output_regenerated;
      Alcotest.test_case "tampered log detected" `Quick test_tampered_log_detected;
      Alcotest.test_case "replay span arg, only when enabled" `Quick
        test_replay_span_arg;
      Alcotest.test_case "nested e-block mismatch texts" `Quick
        test_nested_mismatch_texts;
      random_sequential;
      random_parallel;
      random_parallel_inlined;
      random_large_programs;
      fixed "rpc rendezvous" Workloads.rpc;
    ] )
