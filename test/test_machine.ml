(* The execution machine: sequential semantics, faults, processes,
   semaphores, channels of all three kinds, scheduling. *)

module M = Runtime.Machine

let out name src expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check string) name expected (Util.run_output src))

let fault name src fragment =
  Alcotest.test_case name `Quick (fun () ->
      match Util.run src with
      | M.Fault { msg; _ }, _ ->
        if not (Util.contains ~sub:fragment msg) then
          Alcotest.failf "fault %S does not mention %S" msg fragment
      | h, _ -> Alcotest.failf "expected fault, got %s" (Util.halt_name h))

let test_deadlock_status () =
  match Util.run "sem s = 0; func main() { P(s); }" with
  | M.Deadlock [ (0, _) ], _ -> ()
  | h, _ -> Alcotest.failf "expected deadlock, got %s" (Util.halt_name h)

let test_fuel () =
  let m =
    M.create ~max_steps:100
      (Util.compile "func main() { var x = 1; while (x > 0) { x = x + 1; } }")
  in
  match M.run m with
  | M.Out_of_fuel -> Alcotest.(check int) "steps capped" 100 (M.nsteps m)
  | h -> Alcotest.failf "expected fuel exhaustion, got %s" (Util.halt_name h)

let test_spawn_pids () =
  let m =
    M.create
      (Util.compile
         "func w() { return 7; } func main() { var a = spawn w(); var b = spawn w(); print(a); print(b); join(a); join(b); }")
  in
  (match M.run m with M.Finished -> () | h -> Alcotest.failf "%s" (Util.halt_name h));
  Alcotest.(check string) "pids are 1 and 2" "1\n2\n" (M.output m);
  Alcotest.(check int) "three processes" 3 (M.nprocs m)

let test_join_result () =
  let out =
    Util.run_output
      "func w(n) { return n * n; } func main() { var p = spawn w(6); var r = join(p); print(r); }"
  in
  Alcotest.(check string) "join carries return value" "36\n" out

let test_determinism () =
  let src = Workloads.counter ~workers:3 ~incs:5 ~mutex:false in
  let run () =
    let acc = ref [] in
    let m =
      M.create ~sched:(Runtime.Sched.Random_seed 99)
        ~hooks:(Oracle.Hooks.collect acc) (Util.compile src)
    in
    ignore (M.run m);
    (M.output m, List.rev_map (fun (p, s, e) -> (p, s, Util.event_str e)) !acc)
  in
  let o1, e1 = run () and o2, e2 = run () in
  Alcotest.(check string) "same output" o1 o2;
  Alcotest.(check bool) "same event stream" true (e1 = e2)

let test_schedules_differ () =
  (* the racy counter loses updates under some interleavings *)
  let src = Workloads.counter ~workers:2 ~incs:40 ~mutex:false in
  let results =
    List.map
      (fun seed ->
        let _, out = Util.run ~sched:(Runtime.Sched.Random_seed seed) src in
        out)
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  Alcotest.(check bool) "some interleaving differs" true
    (List.exists (fun r -> r <> List.hd results) (List.tl results)
    || List.hd results <> "80\n")

let test_sem_counting () =
  let out =
    Util.run_output
      {|
      sem s = 2;
      func main() {
        P(s); P(s);       // two initial credits
        V(s); P(s);       // recycle one
        print(1);
      }
      |}
  in
  Alcotest.(check string) "counting semaphore" "1\n" out

let test_sem_mutual_exclusion () =
  (* with a mutex the final count is always exact, whatever the seed *)
  let src = Workloads.counter ~workers:4 ~incs:25 ~mutex:true in
  List.iter
    (fun seed ->
      let _, out = Util.run ~sched:(Runtime.Sched.Random_seed seed) src in
      Alcotest.(check string) (Printf.sprintf "seed %d" seed) "100\n" out)
    [ 11; 22; 33 ]

let test_channel_fifo () =
  let out =
    Util.run_output
      {|
      chan c;
      func main() {
        send(c, 1); send(c, 2); send(c, 3);
        var x = 0;
        recv(c, x); print(x);
        recv(c, x); print(x);
        recv(c, x); print(x);
      }
      |}
  in
  Alcotest.(check string) "FIFO order" "1\n2\n3\n" out

let test_bounded_channel_blocks () =
  (* capacity 1: a lone process sending twice deadlocks on the second *)
  match
    Util.run "chan c[1]; func main() { send(c, 1); send(c, 2); }"
  with
  | M.Deadlock _, _ -> ()
  | h, _ -> Alcotest.failf "expected deadlock on full channel, got %s" (Util.halt_name h)

let test_sync_channel_rendezvous () =
  (* capacity 0: send blocks until the receive happens *)
  let out = Util.run_output (Workloads.producer_consumer ~items:5 ~cap:0) in
  Alcotest.(check string) "sum received" "15\n" out

let test_sync_channel_order_events () =
  let acc = ref [] in
  let m =
    M.create ~hooks:(Oracle.Hooks.collect acc)
      (Util.compile Workloads.fig61)
  in
  ignore (M.run m);
  (* the Figure 6.1 pattern: send (n3) happens-before recv (n4)
     happens-before the sender's unblock (n5) *)
  let events = List.rev !acc in
  let find kind_pred =
    List.filter_map
      (fun (pid, seq, ev) ->
        match ev with
        | Runtime.Event.E_stmt { kind; _ } when kind_pred kind -> Some (pid, seq)
        | _ -> None)
      events
  in
  let sends = find (function Runtime.Event.K_send _ -> true | _ -> false) in
  let recvs = find (function Runtime.Event.K_recv _ -> true | _ -> false) in
  let unblocks =
    find (function Runtime.Event.K_send_unblocked _ -> true | _ -> false)
  in
  Alcotest.(check int) "two sends" 2 (List.length sends);
  Alcotest.(check int) "two recvs" 2 (List.length recvs);
  Alcotest.(check int) "two unblocks" 2 (List.length unblocks)

let test_round_robin_quantum () =
  (* with quantum 1 two independent workers interleave strictly *)
  let src =
    {|
    func w(n) { print(n); print(n); return 0; }
    func main() {
      var a = spawn w(1);
      var b = spawn w(2);
      join(a); join(b);
    }
    |}
  in
  let _, out = Util.run ~sched:(Runtime.Sched.Round_robin 1) src in
  (* both workers' prints appear, four lines total *)
  Alcotest.(check int) "four prints" 4
    (List.length (String.split_on_char '\n' (String.trim out)))

let test_nested_spawn () =
  (* a spawned process spawning further processes *)
  let out =
    Util.run_output
      {|
      func leafw(n) { return n * 10; }
      func midw(n) {
        var a = spawn leafw(n);
        var b = spawn leafw(n + 1);
        var ra = join(a);
        var rb = join(b);
        return ra + rb;
      }
      func main() {
        var p = spawn midw(1);
        var r = join(p);
        print(r);
      }
      |}
  in
  Alcotest.(check string) "grandchildren results" "30
" out

let test_two_consumers () =
  (* two consumers share one producer's channel; each item delivered once *)
  let out =
    Util.run_output
      {|
      chan c;
      func consumer(n) {
        var i = 0;
        var sum = 0;
        var x = 0;
        for (i = 0; i < n; i = i + 1) {
          recv(c, x);
          sum = sum + x;
        }
        return sum;
      }
      func main() {
        var c1 = spawn consumer(2);
        var c2 = spawn consumer(2);
        send(c, 1); send(c, 2); send(c, 3); send(c, 4);
        var s1 = join(c1);
        var s2 = join(c2);
        print(s1 + s2);
      }
      |}
  in
  Alcotest.(check string) "every item once" "10
" out

let test_semaphore_as_barrier () =
  (* sem initialised to 0: pure signalling *)
  let out =
    Util.run_output
      {|
      shared int ready = 0;
      sem go = 0;
      func waiter() {
        P(go);
        return ready;
      }
      func main() {
        var p = spawn waiter();
        ready = 42;
        V(go);
        var r = join(p);
        print(r);
      }
      |}
  in
  Alcotest.(check string) "signalled value" "42
" out

let test_multiple_waiters_all_released () =
  let out =
    Util.run_output
      {|
      sem gate = 0;
      func w(n) { P(gate); return n; }
      func main() {
        var a = spawn w(1);
        var b = spawn w(2);
        var c = spawn w(3);
        V(gate); V(gate); V(gate);
        var ra = join(a); var rb = join(b); var rc = join(c);
        print(ra + rb + rc);
      }
      |}
  in
  Alcotest.(check string) "all three released" "6
" out

let test_global_array_across_processes () =
  let out =
    Util.run_output ~sched:(Runtime.Sched.Round_robin 2)
      {|
      shared int slots[4];
      func filler(i) { slots[i] = i * i; }
      func main() {
        var p0 = spawn filler(0);
        var p1 = spawn filler(1);
        var p2 = spawn filler(2);
        var p3 = spawn filler(3);
        join(p0); join(p1); join(p2); join(p3);
        print(slots[0] + slots[1] + slots[2] + slots[3]);
      }
      |}
  in
  Alcotest.(check string) "0+1+4+9" "14
" out

let test_fault_in_child_halts_machine () =
  let src =
    {|
    func bad() { var x = 0; print(1 / x); }
    func main() { var p = spawn bad(); join(p); }
    |}
  in
  match Util.run src with
  | M.Fault { pid; msg; _ }, _ ->
    Alcotest.(check bool) "child pid" true (pid = 1);
    Alcotest.(check bool) "division" true (Util.contains ~sub:"division" msg)
  | h, _ -> Alcotest.failf "expected fault, got %s" (Util.halt_name h)

let test_main_exit_does_not_kill_children () =
  (* main finishing does not terminate the others; the run completes
     when everyone does *)
  let out =
    Util.run_output ~sched:(Runtime.Sched.Round_robin 1)
      {|
      func late() {
        var i = 0;
        while (i < 20) { i = i + 1; }
        print(i);
      }
      func main() { spawn late(); }
      |}
  in
  Alcotest.(check string) "child finished after main" "20
" out

let suite =
  ( "machine",
    [
      out "arithmetic" "func main() { print(2 + 3 * 4 - 6 / 2); }" "11\n";
      out "modulo" "func main() { print(17 % 5); }" "2\n";
      out "unary minus" "func main() { var x = 5; print(-x + 1); }" "-4\n";
      out "bool printing" "func main() { print(1 < 2); print(2 < 1); }" "1\n0\n";
      out "short circuit and"
        "func main() { var x = 0; if (x != 0 && 10 / x > 1) { print(1); } else { print(2); } }"
        "2\n";
      out "short circuit or"
        "func main() { var x = 0; if (x == 0 || 10 / x > 1) { print(1); } }" "1\n";
      out "while loop" "func main() { var i = 0; var s = 0; while (i < 5) { s = s + i; i = i + 1; } print(s); }"
        "10\n";
      out "nested ifs" Workloads.foo3 "3\n3\n";
      out "arrays" "func main() { var a[3]; a[0] = 5; a[1] = a[0] * 2; a[2] = a[0] + a[1]; print(a[2]); }"
        "15\n";
      out "shared array"
        "shared int g[2]; func main() { g[0] = 3; g[1] = g[0] + 1; print(g[0] + g[1]); }"
        "7\n";
      out "recursion" (Workloads.fib 12) "144\n";
      out "call chain" (Workloads.deep_calls ~depth:6) "6\n";
      out "global init" "shared int g = 6 * 7; func main() { print(g); }" "42\n";
      fault "division by zero" "func main() { var x = 0; print(1 / x); }" "division by zero";
      fault "modulo by zero" "func main() { var x = 0; print(1 % x); }" "modulo by zero";
      fault "uninitialised read" "func main() { var x; print(x); }" "uninitialised";
      fault "array out of bounds" "func main() { var a[2]; a[2] = 1; }" "out of bounds";
      fault "negative index" "func main() { var a[2]; var i = 0 - 1; print(a[i]); }"
        "out of bounds";
      fault "assert failure" "func main() { assert(1 == 2); }" "assertion failed";
      fault "join bad pid" "func main() { join(42); }" "no process";
      fault "join self" "func main() { join(0); }" "joining itself";
      fault "void result used"
        "func f(c) { if (c > 0) { return 1; } } func main() { var x = f(0); print(x); }"
        "uninitialised";
      Alcotest.test_case "deadlock status" `Quick test_deadlock_status;
      Alcotest.test_case "fuel" `Quick test_fuel;
      Alcotest.test_case "spawn pids" `Quick test_spawn_pids;
      Alcotest.test_case "join result" `Quick test_join_result;
      Alcotest.test_case "seeded determinism" `Quick test_determinism;
      Alcotest.test_case "schedules can differ" `Quick test_schedules_differ;
      Alcotest.test_case "semaphore counting" `Quick test_sem_counting;
      Alcotest.test_case "mutual exclusion" `Quick test_sem_mutual_exclusion;
      Alcotest.test_case "channel FIFO" `Quick test_channel_fifo;
      Alcotest.test_case "bounded channel blocks" `Quick test_bounded_channel_blocks;
      Alcotest.test_case "synchronous rendezvous" `Quick test_sync_channel_rendezvous;
      Alcotest.test_case "Fig 6.1 event pattern" `Quick test_sync_channel_order_events;
      Alcotest.test_case "round robin quantum" `Quick test_round_robin_quantum;
      Alcotest.test_case "nested spawn" `Quick test_nested_spawn;
      Alcotest.test_case "two consumers" `Quick test_two_consumers;
      Alcotest.test_case "semaphore as signal" `Quick test_semaphore_as_barrier;
      Alcotest.test_case "multiple waiters released" `Quick
        test_multiple_waiters_all_released;
      Alcotest.test_case "global array across processes" `Quick
        test_global_array_across_processes;
      Alcotest.test_case "fault in child" `Quick test_fault_in_child_halts_machine;
      Alcotest.test_case "main exit keeps children" `Quick
        test_main_exit_does_not_kill_children;
    ] )
