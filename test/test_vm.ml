(* Differential tests: the product machine (bytecode VM) against the
   AST-walking interpreter oracle of test/oracle, which has its own
   copy of the sync, call and return driver, so the checks cover the
   product's driver as well as the VM.

   The VM claims observational identity with the interpreter — same
   event stream (pid, seq, step, event), same halt, same output, same
   step count, same final stores — under every scheduler, budget and
   breakpoint set. These tests quantify over random programs and
   schedules (qcheck) and pin the VM-specific edge cases: register
   arena growth under deep recursion, receive defining its own target,
   a burst budget collapsing mid-statement, breakpoints landing inside
   a burst, and the peephole-fused instruction forms (literal operands,
   local-scalar operands, counter statements, fused loop tests) which
   must preserve fault messages and fault points exactly.

   Events are built on demand: the logger declines local statement
   events, so a logger-only VM run keeps them on the bare path. Its log
   must still equal, byte for byte, the log recorded beside an observer
   that reads every event, and the interpreter's log. *)

module Machines = Oracle.Machines

let traced run =
  let ft = Oracle.Full_trace.create () in
  let r = run ~hooks:(Oracle.Full_trace.factory ft) in
  (r, Oracle.Full_trace.finish ft)

let fail_on what = function
  | Some why -> Alcotest.failf "%s: %s" what why
  | None -> ()

(* The whole contract at once, instrumented and bare. *)
let assert_identical ?sched ?(max_steps = 200_000) ?breakpoints what src =
  let prog = Util.compile src in
  let ri, ti =
    traced (fun ~hooks -> Machines.interp ?sched ~max_steps ?breakpoints ~hooks prog)
  and rv, tv =
    traced (fun ~hooks -> Machines.vm ?sched ~max_steps ?breakpoints ~hooks prog)
  in
  fail_on what (Machines.trace_diff ti tv);
  fail_on what (Machines.diff ri rv);
  fail_on (what ^ " (bare)")
    (Machines.diff
       (Machines.interp ?sched ~max_steps ?breakpoints prog)
       (Machines.vm ?sched ~max_steps ?breakpoints prog))

(* ------------------------------------------------------------------ *)
(* qcheck: random programs x random schedules.                          *)
(* ------------------------------------------------------------------ *)

let schedulers seed =
  [
    Runtime.Sched.Round_robin 1;
    Runtime.Sched.Round_robin 4;
    Runtime.Sched.Random_seed seed;
    Runtime.Sched.Random_seed ((seed * 31) + 7);
  ]

let oracle_seq seed =
  assert_identical "sequential" (Gen.sequential seed);
  true

let oracle_par seed =
  let src = Gen.parallel ~protect:`Sometimes seed in
  List.iter
    (fun sched -> assert_identical ~sched "parallel" src)
    (schedulers seed);
  true

(* Budget collapse: truncating the run at every fuel level must agree —
   a burst cut short mid-quantum is observationally the same as single
   stepping. The full run for this source is a few hundred steps; probe
   a spread of prefixes including 0 and 1. *)
let oracle_budget seed =
  let src = Gen.parallel ~protect:`Always seed in
  List.iter
    (fun max_steps ->
      assert_identical ~sched:(Runtime.Sched.Round_robin 3) ~max_steps
        (Printf.sprintf "budget %d" max_steps)
        src)
    [ 1; 2; 3; 7; 20; 53; 101 ];
  true

let qcheck_seq =
  Util.qtest ~count:40 "vm = interp on random sequential programs"
    QCheck2.Gen.(int_range 0 100_000)
    oracle_seq

let qcheck_par =
  Util.qtest ~count:25 "vm = interp on random parallel programs x scheds"
    QCheck2.Gen.(int_range 0 100_000)
    oracle_par

let qcheck_budget =
  Util.qtest ~count:15 "vm = interp under truncated budgets"
    QCheck2.Gen.(int_range 0 100_000)
    oracle_budget

(* ------------------------------------------------------------------ *)
(* Edge cases.                                                          *)
(* ------------------------------------------------------------------ *)

(* Deep call nesting grows the register arena (each live frame holds a
   window) and exercises frame release on the way back down. *)
let test_deep_nesting () =
  assert_identical "deep recursion"
    {|
func down(n) {
  var r = 0;
  if (n > 0) {
    r = down(n - 1);
  }
  return r + 1;
}
func main() {
  var d = down(200);
  print(d);
}
|}

(* recv defines its target — including an array element whose index is
   itself read at delivery time. *)
let test_recv_defines_target () =
  assert_identical "recv defines target"
    {|
chan c[2];
func main() {
  var a[3];
  var i = 1;
  send(c, 41);
  send(c, 42);
  var x = 0;
  recv(c, x);
  recv(c, a[i + 1]);
  print(x);
  print(a[2]);
}
|}

(* Breakpoints at every statement: a halt landing mid-burst must stop
   the VM at the same event as single-stepping the interpreter. *)
let test_breakpoint_sweep () =
  let src = Workloads.counter ~workers:2 ~incs:3 ~mutex:true in
  let prog = Util.compile src in
  let nsids = Array.length prog.Lang.Prog.stmts in
  for sid = 0 to nsids - 1 do
    assert_identical ~breakpoints:[ sid ]
      (Printf.sprintf "breakpoint at s%d" sid)
      src
  done

(* Fused-instruction faults: literal divisors and uninitialised
   operands must fault with the interpreter's message at the
   interpreter's statement. *)
let test_fused_faults () =
  assert_identical "div by literal zero"
    "func main() {\n  var x = 5;\n  var y = x / 0;\n  print(y);\n}\n";
  assert_identical "mod by literal zero"
    "func main() {\n  var x = 5;\n  var y = x % 0;\n  print(y);\n}\n";
  assert_identical "uninitialised fused operand"
    "func main() {\n  var x;\n  var y = 1 + x;\n  print(y);\n}\n";
  assert_identical "uninitialised fused loop test"
    "func main() {\n  var i;\n  while (i < 3) {\n    i = 0;\n  }\n}\n";
  assert_identical "uninitialised fused increment"
    "func main() {\n  var i;\n  i = i + 1;\n}\n"

(* Fused-instruction arithmetic: literal-left commutative swaps, the
   subtraction increment, mirrored loop tests, global counters. *)
let test_fused_forms () =
  assert_identical "fused forms"
    {|
shared int g = 10;
func main() {
  var i = 6;
  var acc = 0;
  while (3 < i) {
    i = i - 1;
    acc = 2 * (acc + 1);
    acc = acc + i;
  }
  var j = 0;
  while (j < 4) {
    j = j + 1;
    g = g + 2;
  }
  print(i);
  print(acc);
  print(g);
  print(100 - acc);
  print(acc == 10);
  print(7 * acc + acc * 7);
}
|}

(* ------------------------------------------------------------------ *)
(* Events on demand: the logger alone builds no local events.           *)
(* ------------------------------------------------------------------ *)

(* Record [prog] through the logger, streaming into an in-memory
   segment, on the VM or on the interpreter oracle. [co] adds a
   [Hooks.collect] co-observer, which reads local events and so turns
   their materialization back on. Returns the marshalled log and the
   segment bytes with the log and the run. *)
let record ?(co = false) ?(interp = false) ?breakpoints ~sched ~tier eb =
  let buf = Buffer.create 1024 in
  let w = Store.Segment.Writer.to_buffer ~tier buf in
  let logger =
    Trace.Logger.create ~sink:(Store.Segment.Writer.sink w) ~tier eb
  in
  let hooks =
    if co then
      Oracle.Hooks.both (Trace.Logger.factory logger)
        (Oracle.Hooks.collect (ref []))
    else Trace.Logger.factory logger
  in
  let run =
    (if interp then Machines.interp else Machines.vm)
      ~sched ~max_steps:200_000 ?breakpoints ~hooks eb.Analysis.Eblock.prog
  in
  let log = Trace.Logger.finish logger in
  Store.Segment.Writer.close w;
  (Marshal.to_string log [], Buffer.contents buf, log, run)

let check_same_recording what (la, sa, _, _) (lb, sb, _, _) =
  Alcotest.(check bool)
    (what ^ ": marshalled log bytes") true (String.equal la lb);
  Alcotest.(check bool) (what ^ ": segment bytes") true (String.equal sa sb)

(* The logger-only VM recording against the same recording with a
   locals-reading co-observer, and against the interpreter's. *)
let check_logger_only ?breakpoints ~sched ~tier what eb =
  let alone = record ?breakpoints ~sched ~tier eb in
  check_same_recording (what ^ " vs collect")
    alone
    (record ~co:true ?breakpoints ~sched ~tier eb);
  check_same_recording (what ^ " vs interp")
    alone
    (record ~interp:true ?breakpoints ~sched ~tier eb);
  alone

let oracle_logger_only seed =
  List.iter
    (fun (kind, src) ->
      let prog = Util.compile src in
      List.iter
        (fun loops ->
          let policy =
            Test_loop_eblock.policy ~loops:(if loops then 1 else 0)
          in
          let eb = Analysis.Eblock.analyze ~policy prog in
          List.iter
            (fun sched ->
              List.iter
                (fun tier ->
                  ignore
                    (check_logger_only ~sched ~tier
                       (Printf.sprintf "%s loops=%b %s %s" kind loops
                          (Runtime.Sched.string_of_policy sched)
                          (match tier with
                          | Trace.Log.T_content -> "content"
                          | Trace.Log.T_order _ -> "order"))
                       eb))
                [
                  Trace.Log.T_content;
                  Trace.Log.order_tier ~sched ~max_steps:200_000;
                ])
            [
              Runtime.Sched.Round_robin 1;
              Runtime.Sched.Round_robin 4;
              Runtime.Sched.Random_seed ((seed * 31) + 7);
            ])
        [ false; true ])
    [
      ("sequential", Gen.sequential seed);
      ("parallel", Gen.parallel ~protect:`Sometimes seed);
    ];
  true

let qcheck_logger_only =
  Util.qtest ~count:15 "logger-only vm log = collect = interp"
    QCheck2.Gen.(int_range 0 100_000)
    oracle_logger_only

(* Every process's stop is the machine's own event count, also when the
   run ends on a local statement the logger never saw. *)
let check_stops what (_, _, (log : Trace.Log.t), (run : Machines.run)) =
  Alcotest.(check int)
    (what ^ ": nprocs") (Array.length run.seqs) log.Trace.Log.nprocs;
  Array.iteri
    (fun pid stop ->
      Alcotest.(check int)
        (Printf.sprintf "%s: pid %d stop" what pid)
        run.seqs.(pid) stop)
    log.Trace.Log.stops

(* The loop e-block programs of test_loop_eblock.ml, recorded by the
   logger alone. *)
let pinned ?breakpoints what src expect =
  let eb =
    Analysis.Eblock.analyze
      ~policy:(Test_loop_eblock.policy ~loops:3)
      (Util.compile src)
  in
  let ((_, _, _, run) as r) =
    check_logger_only ?breakpoints ~sched:Runtime.Sched.default
      ~tier:Trace.Log.T_content what eb
  in
  Alcotest.(check string) (what ^ ": halt") expect (Util.halt_name run.halt);
  check_stops what r

let looped_src = Test_loop_eblock.looped_src

let test_stops_failing_assert () =
  pinned "failing assert" looped_src "fault: assertion failed"

let test_stops_breakpoint () =
  (* halt on the loop body's first assignment: the run ends on a local
     statement *)
  let prog = Util.compile looped_src in
  let body =
    Array.to_list prog.Lang.Prog.stmts
    |> List.find (fun st ->
           String.equal (Lang.Prog.stmt_label st) "acc = acc + (i * bias)")
  in
  pinned ~breakpoints:[ body.Lang.Prog.sid ] "breakpoint" looped_src
    (Printf.sprintf "breakpoint at s%d" body.Lang.Prog.sid)

let test_stops_via_return () =
  pinned "return inside a loop e-block" Test_loop_eblock.via_return_src
    "finished"

(* What each observer is handed: the logger alone gets no assignment or
   predicate events; beside [Hooks.collect], [collect] gets them. *)
let test_local_events_on_demand () =
  let eb = Analysis.Eblock.analyze (Util.compile looped_src) in
  let local = function
    | Runtime.Event.E_stmt
        { kind = Runtime.Event.K_assign | Runtime.Event.K_pred _; _ } ->
      true
    | _ -> false
  in
  let run with_collect =
    let seen = ref [] and collected = ref [] in
    let logger = Trace.Logger.create eb in
    let spy port =
      let h = Trace.Logger.factory logger port in
      {
        h with
        Runtime.Hooks.on_event =
          (fun ~pid ~seq ev ->
            seen := ev :: !seen;
            h.Runtime.Hooks.on_event ~pid ~seq ev);
      }
    in
    let hooks =
      if with_collect then
        Oracle.Hooks.both spy (Oracle.Hooks.collect collected)
      else spy
    in
    ignore
      (Runtime.Machine.run
         (Runtime.Machine.create ~hooks eb.Analysis.Eblock.prog));
    ( List.length (List.filter local !seen),
      List.length (List.filter (fun (_, _, ev) -> local ev) !collected) )
  in
  let alone, _ = run false in
  Alcotest.(check int) "logger alone: no assign/pred events" 0 alone;
  let _, collected = run true in
  (* 2 assignments before the loop, 11 tests, 20 body assignments, the
     assignment after it *)
  Alcotest.(check int) "collect: every assign/pred event" 34 collected

let suite =
  ( "vm",
    [
      qcheck_seq;
      qcheck_par;
      qcheck_budget;
      Alcotest.test_case "deep call nesting" `Quick test_deep_nesting;
      Alcotest.test_case "recv defines target" `Quick test_recv_defines_target;
      Alcotest.test_case "breakpoint sweep" `Quick test_breakpoint_sweep;
      Alcotest.test_case "fused faults" `Quick test_fused_faults;
      Alcotest.test_case "fused forms" `Quick test_fused_forms;
      qcheck_logger_only;
      Alcotest.test_case "stops: failing assert" `Quick
        test_stops_failing_assert;
      Alcotest.test_case "stops: breakpoint halt" `Quick test_stops_breakpoint;
      Alcotest.test_case "stops: return in loop e-block" `Quick
        test_stops_via_return;
      Alcotest.test_case "local events on demand" `Quick
        test_local_events_on_demand;
    ] )
