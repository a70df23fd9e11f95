(* Loop e-blocks (§5.4): loops as units of incremental tracing. *)

module L = Trace.Log

let policy ~loops =
  { Analysis.Eblock.leaf_inline_max_stmts = 0; loop_block_min_body = loops }

(* A loop-heavy single-process program with an error after the loop. *)
let looped_src =
  {|
  shared int bias = 2;
  func main() {
    var acc = 0;
    var i = 0;
    while (i < 10) {
      acc = acc + i * bias;
      i = i + 1;
    }
    var final = acc + 1;
    assert(final == 0);
  }
  |}

let test_policy_detects_loops () =
  let p = Util.compile looped_src in
  let eb = Analysis.Eblock.analyze ~policy:(policy ~loops:3) p in
  let loop_sid =
    let s = ref (-1) in
    Array.iter
      (fun (st : Lang.Prog.stmt) ->
        match st.desc with Lang.Prog.Swhile _ -> s := st.sid | _ -> ())
      p.stmts;
    !s
  in
  Alcotest.(check bool) "loop is a block" true
    (Analysis.Eblock.is_loop_block eb ~sid:loop_sid);
  match Analysis.Eblock.loop_block_vars eb ~sid:loop_sid with
  | None -> Alcotest.fail "no vars"
  | Some (pre, post) ->
    let names vs = List.map (fun (v : Lang.Prog.var) -> v.vname) vs in
    Alcotest.(check (list string)) "prelog vars" [ "bias"; "acc"; "i" ]
      (names pre);
    Alcotest.(check (list string)) "postlog vars" [ "acc"; "i" ] (names post)

let test_log_and_intervals () =
  let eb, halt, log, _tr, _m =
    Util.run_instrumented ~policy:(policy ~loops:3) looped_src
  in
  (match halt with
  | Runtime.Machine.Fault _ -> ()
  | h -> Alcotest.failf "expected fault, got %s" (Util.halt_name h));
  let prog = eb.Analysis.Eblock.prog in
  let ivs =
    L.intervals ~stmt_fid:(fun sid -> prog.stmt_fid.(sid)) log ~pid:0
  in
  (* main (open, due to the fault) + the loop (closed) *)
  Alcotest.(check int) "two intervals" 2 (Array.length ivs);
  let loop_iv =
    Array.to_list ivs
    |> List.find (fun iv ->
           match iv.L.iv_block with L.Bloop _ -> true | L.Bfunc _ -> false)
  in
  Alcotest.(check bool) "loop closed" true (loop_iv.L.iv_seq_end <> None);
  Alcotest.(check bool) "nested in main" true (loop_iv.L.iv_parent <> None);
  Alcotest.(check int) "enclosing function recorded" prog.main_fid
    loop_iv.L.iv_fid

let test_replay_equivalence_with_loops () =
  List.iter
    (fun src ->
      let eb, _h, log, tr, _m =
        Util.run_instrumented ~policy:(policy ~loops:3) src
      in
      ignore (Util.check_replay_equivalence eb log tr))
    [
      looped_src;
      Workloads.matmul 4;
      Workloads.branchy ~rounds:10;
      Workloads.counter ~workers:2 ~incs:5 ~mutex:true;
      Workloads.producer_consumer ~items:6 ~cap:2;
    ]

let test_parent_skips_loop () =
  (* replaying main must skip the loop region: far fewer steps *)
  let eb, _h, log, _tr, _m =
    Util.run_instrumented ~policy:(policy ~loops:3) looped_src
  in
  let ivs = L.intervals log ~pid:0 in
  let root =
    Array.to_list ivs |> List.find (fun iv -> iv.L.iv_parent = None)
  in
  let o = Ppd.Emulator.replay eb log ~interval:root in
  (* without loop skipping the loop alone costs > 30 steps *)
  Alcotest.(check bool)
    (Printf.sprintf "few steps (%d)" o.Ppd.Emulator.steps)
    true
    (o.Ppd.Emulator.steps < 15);
  (* the skipped loop appears as enter+exit with the postlog writes *)
  let skipped =
    List.exists
      (fun (_, ev) ->
        match ev with
        | Runtime.Event.E_loop_exit { writes = Some ws; _ } ->
          List.exists (fun ((v : Lang.Prog.var), _) -> v.vname = "acc") ws
        | _ -> false)
      o.Ppd.Emulator.events
  in
  Alcotest.(check bool) "loop skipped with writes" true skipped

let test_loop_interval_replays () =
  let eb, _h, log, _tr, _m =
    Util.run_instrumented ~policy:(policy ~loops:3) looped_src
  in
  let ivs = L.intervals log ~pid:0 in
  let loop_iv =
    Array.to_list ivs
    |> List.find (fun iv ->
           match iv.L.iv_block with L.Bloop _ -> true | L.Bfunc _ -> false)
  in
  let o = Ppd.Emulator.replay eb log ~interval:loop_iv in
  Alcotest.(check (option string)) "no fault" None o.Ppd.Emulator.fault;
  Alcotest.(check (list string)) "postlog validated" []
    o.Ppd.Emulator.postlog_mismatches;
  (* 10 iterations: 11 predicate tests + 20 body assignments *)
  let preds =
    List.length
      (List.filter
         (fun (_, ev) ->
           match ev with
           | Runtime.Event.E_stmt { kind = Runtime.Event.K_pred _; _ } -> true
           | _ -> false)
         o.Ppd.Emulator.events)
  in
  Alcotest.(check int) "11 predicate tests" 11 preds

let test_flowback_through_skipped_loop () =
  (* the error depends on acc, which the (collapsed) loop defines; the
     collapsed loop node carries the dependence until expanded *)
  let prog = Util.compile looped_src in
  let eb = Analysis.Eblock.analyze ~policy:(policy ~loops:3) prog in
  let logger = Trace.Logger.create eb in
  let m =
    Runtime.Machine.create ~hooks:(Trace.Logger.factory logger) prog
  in
  ignore (Runtime.Machine.run m);
  let log = Trace.Logger.finish logger in
  let ctl = Ppd.Controller.start eb log in
  let root = Option.get (Ppd.Controller.last_event_node ctl ~pid:0) in
  let g = Ppd.Controller.graph ctl in
  let deps = Ppd.Flowback.dependences ctl root in
  ignore deps;
  (* find the loop node and check it is the definer of acc's chain *)
  let find_kind pred =
    let r = ref None in
    for i = 0 to Ppd.Dyn_graph.nnodes g - 1 do
      if pred (Ppd.Dyn_graph.node g i) then r := Some i
    done;
    !r
  in
  let loop_node =
    find_kind (fun n ->
        match n.Ppd.Dyn_graph.nd_kind with
        | Ppd.Dyn_graph.N_loop _ -> true
        | _ -> false)
  in
  (match loop_node with
  | None -> Alcotest.fail "no loop node in graph"
  | Some ln ->
    let final_assign =
      find_kind (fun n -> n.Ppd.Dyn_graph.nd_label = "final = acc + 1")
    in
    (match final_assign with
    | None -> Alcotest.fail "final assignment missing"
    | Some fa ->
      let from_loop =
        List.exists
          (fun (src, k) ->
            src = ln
            && match k with Ppd.Dyn_graph.Data _ -> true | _ -> false)
          (Ppd.Dyn_graph.preds g fa)
      in
      Alcotest.(check bool) "acc flows from the collapsed loop" true from_loop);
    (* expanding the loop pulls in its iterations *)
    let st0 = (Ppd.Controller.stats ctl).Ppd.Controller.replays in
    (match Ppd.Controller.expand_subgraph ctl ln with
    | Some _ -> ()
    | None -> Alcotest.fail "loop should expand");
    let st1 = (Ppd.Controller.stats ctl).Ppd.Controller.replays in
    Alcotest.(check int) "one more replay" (st0 + 1) st1;
    let iter_assign =
      find_kind (fun n ->
          n.Ppd.Dyn_graph.nd_label = "acc = acc + (i * bias)"
          && n.Ppd.Dyn_graph.nd_owner = Some ln)
    in
    Alcotest.(check bool) "iteration detail owned by loop node" true
      (iter_assign <> None))

(* A return from inside a loop e-block. *)
let via_return_src =
  {|
    func find(limit) {
      var i = 0;
      while (i < limit) {
        if (i * i > 20) {
          return i;
        }
        i = i + 1;
      }
      return -1;
    }
    func main() {
      var r = find(100);
      print(r);
    }
    |}

let test_return_inside_loop () =
  let eb, halt, log, tr, m =
    Util.run_instrumented ~policy:(policy ~loops:3) via_return_src
  in
  (match halt with
  | Runtime.Machine.Finished -> ()
  | h -> Alcotest.failf "%s" (Util.halt_name h));
  Alcotest.(check string) "found 5" "5\n" (Runtime.Machine.output m);
  (* intervals close despite the early return, and replay matches *)
  ignore (Util.check_replay_equivalence eb log tr)

let test_sync_inside_loop_block () =
  (* a loop e-block whose body synchronizes: its interval contains sync
     records; skipping it must jump them, replaying it must consume
     them, and cross-process ordering still holds *)
  let src =
    {|
    shared int total = 0;
    sem m = 1;
    func worker(n) {
      var i = 0;
      while (i < n) {
        P(m);
        total = total + 1;
        V(m);
        i = i + 1;
      }
      return 0;
    }
    func main() {
      var p1 = spawn worker(4);
      var p2 = spawn worker(3);
      join(p1);
      join(p2);
      print(total);
    }
    |}
  in
  let eb, halt, log, tr, m = Util.run_instrumented ~policy:(policy ~loops:3) src in
  (match halt with
  | Runtime.Machine.Finished -> ()
  | h -> Alcotest.failf "%s" (Util.halt_name h));
  Alcotest.(check string) "total" "7
" (Runtime.Machine.output m);
  ignore (Util.check_replay_equivalence eb log tr);
  (* each worker has a loop interval nested in its root *)
  List.iter
    (fun pid ->
      let ivs = L.intervals log ~pid in
      let loops =
        Array.to_list ivs
        |> List.filter (fun iv ->
               match iv.L.iv_block with L.Bloop _ -> true | _ -> false)
      in
      Alcotest.(check int) (Printf.sprintf "p%d loop interval" pid) 1
        (List.length loops))
    [ 1; 2 ];
  (* races: none (mutex-protected), even with loop blocks *)
  let pd = Ppd.Pardyn.of_log eb.Analysis.Eblock.prog log in
  ignore pd

let test_whatif_on_loop_interval () =
  (* §5.7 experiment on a loop e-block: re-run one loop execution with a
     different bound variable state *)
  let src =
    {|
    func main() {
      var n = 5;
      var acc = 0;
      var i = 0;
      while (i < n) {
        acc = acc + i;
        i = i + 1;
      }
      print(acc);
    }
    |}
  in
  let s =
    Ppd.Session.run ~policy:(policy ~loops:3) src
  in
  Alcotest.(check string) "original" "10
" (Ppd.Session.output s);
  let p = Ppd.Session.prog s in
  let ivs =
    Trace.Log.intervals
      ~stmt_fid:(fun sid -> p.Lang.Prog.stmt_fid.(sid))
      (Ppd.Session.log s) ~pid:0
  in
  let loop_iv =
    Array.to_list ivs
    |> List.find (fun iv ->
           match iv.Trace.Log.iv_block with
           | Trace.Log.Bloop _ -> true
           | _ -> false)
  in
  match
    Ppd.Controller.what_if ~iv_id:loop_iv.Trace.Log.iv_id
      (Ppd.Session.controller s) ~pid:0 ~overrides:[ ("n", 3) ]
  with
  | Error e -> Alcotest.fail e
  | Ok (_, o) ->
    (* fewer iterations: count the true predicates *)
    let trues =
      List.length
        (List.filter
           (fun (_, ev) ->
             match ev with
             | Runtime.Event.E_stmt { kind = Runtime.Event.K_pred true; _ } ->
               true
             | _ -> false)
           o.Ppd.Emulator.events)
    in
    Alcotest.(check int) "three iterations" 3 trues

let random_with_loop_blocks =
  Util.qtest ~count:25 "random programs replay exactly with loop e-blocks"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let eb, _h, log, tr, _m =
        Util.run_instrumented ~policy:(policy ~loops:2) (Gen.sequential seed)
      in
      Util.check_replay_equivalence eb log tr >= 1)

let random_parallel_with_loop_blocks =
  Util.qtest ~count:20 "random parallel programs + loop e-blocks"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let eb, _h, log, tr, _m =
        Util.run_instrumented
          ~sched:(Runtime.Sched.Random_seed sseed)
          ~policy:(policy ~loops:2)
          (Gen.parallel ~protect:`Always seed)
      in
      Util.check_replay_equivalence eb log tr >= 1)

let suite =
  ( "loop-eblocks",
    [
      Alcotest.test_case "policy detects loops" `Quick test_policy_detects_loops;
      Alcotest.test_case "log entries and intervals" `Quick test_log_and_intervals;
      Alcotest.test_case "replay equivalence" `Quick
        test_replay_equivalence_with_loops;
      Alcotest.test_case "parent skips the loop" `Quick test_parent_skips_loop;
      Alcotest.test_case "loop interval replays" `Quick test_loop_interval_replays;
      Alcotest.test_case "flowback through a skipped loop" `Quick
        test_flowback_through_skipped_loop;
      Alcotest.test_case "return inside loop" `Quick test_return_inside_loop;
      Alcotest.test_case "sync inside a loop block" `Quick
        test_sync_inside_loop_block;
      Alcotest.test_case "what-if on a loop interval" `Quick
        test_whatif_on_loop_interval;
      random_with_loop_blocks;
      random_parallel_with_loop_blocks;
    ] )
