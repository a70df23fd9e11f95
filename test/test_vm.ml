(* Differential tests: the bytecode VM against the AST-walking
   interpreter oracle.

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

let ( = ) : int -> int -> bool = Stdlib.( = )

let trace_with engine ?(sched = Runtime.Sched.default) ?(max_steps = 200_000)
    ?(breakpoints = []) prog =
  let ft = Trace.Full_trace.create () in
  let m =
    Runtime.Machine.create ~engine ~sched ~max_steps ~breakpoints
      ~hooks:(Trace.Full_trace.factory ft) prog
  in
  let halt = Runtime.Machine.run m in
  (halt, Trace.Full_trace.finish ft, m)

let bare_with engine ?(sched = Runtime.Sched.default) ?(max_steps = 200_000)
    ?(breakpoints = []) prog =
  let m = Runtime.Machine.create ~engine ~sched ~max_steps ~breakpoints prog in
  let halt = Runtime.Machine.run m in
  (halt, m)

let pp_halt = Util.halt_name

let show_rec (r : Trace.Full_trace.rec_) =
  Format.asprintf "p%d #%d @%d %a" r.tr_pid r.tr_seq r.tr_step Runtime.Event.pp
    r.tr_ev

(* Structural machine-state comparison shared by every differential
   check: halt, output, step clock, per-process event counts, final
   globals. *)
let check_machines what mi mv hi hv =
  if Stdlib.( <> ) hi hv then
    Alcotest.failf "%s: halt differs\ninterp: %s\nvm:     %s" what (pp_halt hi)
      (pp_halt hv);
  Alcotest.(check string)
    (what ^ ": output") (Runtime.Machine.output mi) (Runtime.Machine.output mv);
  Alcotest.(check int)
    (what ^ ": nsteps") (Runtime.Machine.nsteps mi) (Runtime.Machine.nsteps mv);
  Alcotest.(check int)
    (what ^ ": nprocs") (Runtime.Machine.nprocs mi) (Runtime.Machine.nprocs mv);
  for pid = 0 to Runtime.Machine.nprocs mi - 1 do
    Alcotest.(check int)
      (Printf.sprintf "%s: proc %d seq" what pid)
      (Runtime.Machine.proc_seq mi pid)
      (Runtime.Machine.proc_seq mv pid)
  done;
  let p = Runtime.Machine.prog mi in
  Array.iteri
    (fun slot _ ->
      let gi = Runtime.Machine.read_global mi slot
      and gv = Runtime.Machine.read_global mv slot in
      if Stdlib.( <> ) gi gv then
        Alcotest.failf "%s: global slot %d differs: %s vs %s" what slot
          (Runtime.Value.to_string gi) (Runtime.Value.to_string gv))
    p.Lang.Prog.global_inits

let check_traces what (ti : Trace.Full_trace.t) (tv : Trace.Full_trace.t) =
  let ni = Array.length ti.recs and nv = Array.length tv.recs in
  let n = min ni nv in
  for i = 0 to n - 1 do
    if Stdlib.( <> ) ti.recs.(i) tv.recs.(i) then
      Alcotest.failf "%s: trace diverges at event %d\ninterp: %s\nvm:     %s"
        what i (show_rec ti.recs.(i)) (show_rec tv.recs.(i))
  done;
  if ni <> nv then
    Alcotest.failf "%s: trace lengths differ: interp %d, vm %d" what ni nv

(* The whole contract at once, instrumented and bare. *)
let assert_identical ?sched ?max_steps ?breakpoints what src =
  let prog = Util.compile src in
  let hi, ti, mi =
    trace_with Runtime.Machine.Interp_engine ?sched ?max_steps ?breakpoints prog
  in
  let hv, tv, mv =
    trace_with Runtime.Machine.Vm_engine ?sched ?max_steps ?breakpoints prog
  in
  check_traces what ti tv;
  check_machines what mi mv hi hv;
  let hib, mib =
    bare_with Runtime.Machine.Interp_engine ?sched ?max_steps ?breakpoints prog
  in
  let hvb, mvb =
    bare_with Runtime.Machine.Vm_engine ?sched ?max_steps ?breakpoints prog
  in
  check_machines (what ^ " (bare)") mib mvb hib hvb

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
   segment. [co] adds a [Hooks.collect] co-observer, which reads local
   events and so turns their materialization back on. Returns the
   marshalled log and the segment bytes with the log and the machine. *)
let record ?(co = false) ?(breakpoints = []) ~engine ~sched ~tier eb =
  let buf = Buffer.create 1024 in
  let w = Store.Segment.Writer.to_buffer ~tier buf in
  let logger =
    Trace.Logger.create ~sink:(Store.Segment.Writer.sink w) ~tier eb
  in
  let hooks =
    if co then
      Runtime.Hooks.both (Trace.Logger.factory logger)
        (Runtime.Hooks.collect (ref []))
    else Trace.Logger.factory logger
  in
  let m =
    Runtime.Machine.create ~engine ~sched ~max_steps:200_000 ~breakpoints
      ~hooks eb.Analysis.Eblock.prog
  in
  let halt = Runtime.Machine.run m in
  let log = Trace.Logger.finish logger in
  Store.Segment.Writer.close w;
  (halt, Marshal.to_string log [], Buffer.contents buf, log, m)

let check_same_recording what (_, la, sa, _, _) (_, lb, sb, _, _) =
  Alcotest.(check bool)
    (what ^ ": marshalled log bytes") true (String.equal la lb);
  Alcotest.(check bool) (what ^ ": segment bytes") true (String.equal sa sb)

(* The logger-only VM recording against the same recording with a
   locals-reading co-observer, and against the interpreter's. *)
let check_logger_only ?breakpoints ~sched ~tier what eb =
  let vm = Runtime.Machine.Vm_engine in
  let alone = record ?breakpoints ~engine:vm ~sched ~tier eb in
  check_same_recording (what ^ " vs collect")
    alone
    (record ~co:true ?breakpoints ~engine:vm ~sched ~tier eb);
  check_same_recording (what ^ " vs interp")
    alone
    (record ?breakpoints ~engine:Runtime.Machine.Interp_engine ~sched ~tier
       eb);
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
let check_stops what (_, _, _, (log : Trace.Log.t), m) =
  Alcotest.(check int)
    (what ^ ": nprocs") (Runtime.Machine.nprocs m) log.Trace.Log.nprocs;
  Array.iteri
    (fun pid stop ->
      Alcotest.(check int)
        (Printf.sprintf "%s: pid %d stop" what pid)
        (Runtime.Machine.proc_seq m pid)
        stop)
    log.Trace.Log.stops

(* The loop e-block programs of test_loop_eblock.ml, recorded by the
   logger alone. *)
let pinned ?breakpoints what src expect =
  let eb =
    Analysis.Eblock.analyze
      ~policy:(Test_loop_eblock.policy ~loops:3)
      (Util.compile src)
  in
  let ((halt, _, _, _, _) as r) =
    check_logger_only ?breakpoints ~sched:Runtime.Sched.default
      ~tier:Trace.Log.T_content what eb
  in
  Alcotest.(check string) (what ^ ": halt") expect (pp_halt halt);
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
        Runtime.Hooks.both spy (Runtime.Hooks.collect collected)
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
