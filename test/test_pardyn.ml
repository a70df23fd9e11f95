(* Vector clocks and the parallel dynamic graph: the §6 ordering. *)

module E = Runtime.Event

let test_vclock_basics () =
  let open Ppd.Vclock in
  let a = tick empty ~pid:0 in
  let b = tick a ~pid:0 in
  let c = tick a ~pid:1 in
  Alcotest.(check bool) "a <= b" true (leq a b);
  Alcotest.(check bool) "b !<= a" false (leq b a);
  Alcotest.(check bool) "b,c concurrent" true (compare_clocks b c = Concurrent);
  let j = join b c in
  Alcotest.(check bool) "join dominates both" true (leq b j && leq c j);
  Alcotest.(check int) "component" 2 (get j 0);
  Alcotest.(check int) "other component" 1 (get j 1)

let vclock_join_props =
  Util.qtest ~count:200 "vclock join is lub"
    QCheck2.Gen.(
      pair (list_size (int_range 0 5) (int_range 0 5))
        (list_size (int_range 0 5) (int_range 0 5)))
    (fun (xs, ys) ->
      let open Ppd.Vclock in
      let clock_of l = List.fold_left (fun c pid -> tick c ~pid) empty l in
      let a = clock_of xs and b = clock_of ys in
      let j = join a b in
      leq a j && leq b j && equal (join a b) (join b a)
      && equal (join a (join a b)) (join a b))

let pardyn_of ?sched src =
  let prog = Util.compile src in
  let obs = Oracle.Pardyn_oracle.observer prog in
  let m =
    Runtime.Machine.create ?sched ~hooks:(Oracle.Pardyn_oracle.factory obs) prog
  in
  let halt = Runtime.Machine.run m in
  (halt, Oracle.Pardyn_oracle.finish obs)

let test_fig61_structure () =
  let halt, g = pardyn_of Workloads.fig61 in
  (match halt with Runtime.Machine.Finished -> () | h -> Alcotest.failf "%s" (Util.halt_name h));
  (* nodes: 3 proc-starts + 3 proc-exits + 2 spawns + 2 joins + 2 sends
     + 2 recvs + 2 unblocks = 16 *)
  Alcotest.(check int) "nodes" 16 (Array.length g.Ppd.Pardyn.nodes);
  (* sync edges: 2 spawn->start, 2 exit->join, 2 send->recv, 2
     recv->unblock = 8 *)
  Alcotest.(check int) "sync edges" 8 (Array.length g.Ppd.Pardyn.sync_edges);
  (* the Fig 6.1 triple: send hb recv hb unblock *)
  let find_node pred =
    (Array.to_list g.Ppd.Pardyn.nodes
    |> List.find (fun n ->
           match n.Ppd.Pardyn.n_data with
           | Trace.Log.S_kind k -> pred k
           | _ -> false))
      .Ppd.Pardyn.n_id
  in
  let send1 = find_node (function E.K_send { value = 41; _ } -> true | _ -> false) in
  let recv1 = find_node (function E.K_recv { value = 41; _ } -> true | _ -> false) in
  let unb =
    (* p0's unblock: same pid as send1, kind unblocked *)
    (Array.to_list g.Ppd.Pardyn.nodes
    |> List.find (fun n ->
           n.Ppd.Pardyn.n_pid = g.Ppd.Pardyn.nodes.(send1).Ppd.Pardyn.n_pid
           &&
           match n.Ppd.Pardyn.n_data with
           | Trace.Log.S_kind (E.K_send_unblocked _) -> true
           | _ -> false))
      .Ppd.Pardyn.n_id
  in
  Alcotest.(check bool) "send hb recv" true (Ppd.Pardyn.node_hb g send1 recv1);
  Alcotest.(check bool) "recv hb unblock" true (Ppd.Pardyn.node_hb g recv1 unb);
  Alcotest.(check bool) "recv not hb send" false (Ppd.Pardyn.node_hb g recv1 send1)

let test_edge_sets () =
  let _halt, g = pardyn_of Workloads.racy_bank in
  let p = g.Ppd.Pardyn.prog in
  let balance =
    (Array.to_list p.globals |> List.find (fun v -> v.Lang.Prog.vname = "balance")).vid
  in
  (* each worker's single internal edge reads and writes balance *)
  let worker_edges =
    Array.to_list g.Ppd.Pardyn.iedges
    |> List.filter (fun e -> e.Ppd.Pardyn.ie_pid > 0)
  in
  Alcotest.(check int) "two worker edges" 2 (List.length worker_edges);
  List.iter
    (fun e ->
      Alcotest.(check bool) "reads balance" true
        (Analysis.Varset.mem balance e.Ppd.Pardyn.ie_reads);
      Alcotest.(check bool) "writes balance" true
        (Analysis.Varset.mem balance e.Ppd.Pardyn.ie_writes))
    worker_edges;
  Alcotest.(check bool) "worker edges simultaneous" true
    (match worker_edges with
    | [ e1; e2 ] -> Ppd.Pardyn.simultaneous g e1 e2
    | _ -> false)

let test_mutex_orders_edges () =
  let _halt, g = pardyn_of ~sched:(Runtime.Sched.Round_robin 2) Workloads.fixed_bank in
  (* the two critical sections are ordered through the V->P edge *)
  let crit_edges =
    Array.to_list g.Ppd.Pardyn.iedges
    |> List.filter (fun e ->
           e.Ppd.Pardyn.ie_pid > 0
           && not (Analysis.Varset.is_empty e.Ppd.Pardyn.ie_writes))
  in
  match crit_edges with
  | [ e1; e2 ] ->
    Alcotest.(check bool) "ordered" true
      (Ppd.Pardyn.edge_before g e1 e2 || Ppd.Pardyn.edge_before g e2 e1)
  | l -> Alcotest.failf "expected 2 writing edges, got %d" (List.length l)

let test_of_log_matches_observer_structure () =
  let src = Workloads.fig61 in
  let eb, _h, log, _tr, _m = Util.run_instrumented src in
  let from_log = Ppd.Pardyn.of_log eb.Analysis.Eblock.prog log in
  let _, from_obs = pardyn_of src in
  Alcotest.(check int) "same node count"
    (Array.length from_obs.Ppd.Pardyn.nodes)
    (Array.length from_log.Ppd.Pardyn.nodes);
  Alcotest.(check int) "same sync edges"
    (Array.length from_obs.Ppd.Pardyn.sync_edges)
    (Array.length from_log.Ppd.Pardyn.sync_edges);
  (* same clocks per ref *)
  Array.iter
    (fun n ->
      match Ppd.Pardyn.node_of from_log n.Ppd.Pardyn.n_ref with
      | Some id ->
        Alcotest.(check bool) "clock equal" true
          (Ppd.Vclock.equal n.Ppd.Pardyn.n_clock
             from_log.Ppd.Pardyn.nodes.(id).Ppd.Pardyn.n_clock)
      | None -> Alcotest.fail "node missing in log-built graph")
    from_obs.Ppd.Pardyn.nodes

(* The central ordering property: vector-clock happened-before agrees
   with graph reachability, on random parallel executions. *)
let hb_equals_reachability =
  Util.qtest ~count:25 "vclock hb = reachability"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let _halt, g =
        pardyn_of
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Sometimes seed)
      in
      let n = Array.length g.Ppd.Pardyn.nodes in
      let ok = ref true in
      for a = 0 to n - 1 do
        for b = 0 to n - 1 do
          if Ppd.Pardyn.node_hb g a b <> Oracle.Pardyn_oracle.node_reaches g a b then
            ok := false
        done
      done;
      !ok)

let test_rpc_rendezvous () =
  (* §6.2.3: an RPC needs one sync edge for the call and one for the
     return; with synchronous channels each direction also gets its
     unblock edge, and the caller's events between call and return are
     ordered entirely through the server *)
  let halt, g = pardyn_of Workloads.rpc in
  (match halt with Runtime.Machine.Finished -> () | h -> Alcotest.failf "%s" (Util.halt_name h));
  let find kindp =
    (Array.to_list g.Ppd.Pardyn.nodes
    |> List.find (fun n ->
           match n.Ppd.Pardyn.n_data with
           | Trace.Log.S_kind k -> kindp k
           | _ -> false))
      .Ppd.Pardyn.n_id
  in
  let call_send = find (function E.K_send { chan = 0; _ } -> true | _ -> false) in
  let call_recv = find (function E.K_recv { chan = 0; _ } -> true | _ -> false) in
  let reply_send = find (function E.K_send { chan = 1; _ } -> true | _ -> false) in
  let reply_recv = find (function E.K_recv { chan = 1; _ } -> true | _ -> false) in
  (* the paper's two RPC edges: call and return *)
  Alcotest.(check bool) "call edge" true (Ppd.Pardyn.node_hb g call_send call_recv);
  Alcotest.(check bool) "return edge" true (Ppd.Pardyn.node_hb g reply_send reply_recv);
  (* the server's computation is ordered between them *)
  Alcotest.(check bool) "call before reply" true
    (Ppd.Pardyn.node_hb g call_recv reply_send);
  (* the reply value is 49 = 7*7 *)
  (match g.Ppd.Pardyn.nodes.(reply_recv).Ppd.Pardyn.n_data with
  | Trace.Log.S_kind (E.K_recv { value; _ }) ->
    Alcotest.(check int) "squared" 49 value
  | _ -> Alcotest.fail "not a recv")

let suite =
  ( "pardyn",
    [
      Alcotest.test_case "vclock basics" `Quick test_vclock_basics;
      vclock_join_props;
      Alcotest.test_case "Fig 6.1 structure" `Quick test_fig61_structure;
      Alcotest.test_case "edge access sets" `Quick test_edge_sets;
      Alcotest.test_case "mutex orders edges" `Quick test_mutex_orders_edges;
      Alcotest.test_case "of_log = observer (structure)" `Quick
        test_of_log_matches_observer_structure;
      hb_equals_reachability;
      Alcotest.test_case "RPC rendezvous (§6.2.3)" `Quick test_rpc_rendezvous;
    ] )
