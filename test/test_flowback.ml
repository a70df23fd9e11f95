(* The dynamic graph, the controller's incremental construction, and
   flowback queries — including the Figure 4.1 golden graph. *)

module DG = Ppd.Dyn_graph

let session ?sched src = Ppd.Session.run ?sched src

let graph_labels g =
  List.init (DG.nnodes g) (fun i -> (DG.node g i).DG.nd_label)

let find_label g label =
  let rec go i =
    if i >= DG.nnodes g then None
    else if (DG.node g i).DG.nd_label = label then Some i
    else go (i + 1)
  in
  go 0

let dep_labels ctl node =
  Ppd.Flowback.dependences ctl node
  |> List.map (fun d ->
         ( (DG.node (Ppd.Controller.graph ctl) d.Ppd.Flowback.d_node).DG.nd_label,
           Format.asprintf "%a"
             (fun ppf -> function
               | DG.Data v -> Format.fprintf ppf "data:%s" v.Lang.Prog.vname
               | DG.Dparam i -> Format.fprintf ppf "param:%d" i
               | DG.Control -> Format.fprintf ppf "ctrl"
               | DG.Sync -> Format.fprintf ppf "sync"
               | DG.Flow -> Format.fprintf ppf "flow")
             d.Ppd.Flowback.d_kind ))
  |> List.sort compare

let test_fig41_graph () =
  let s = session Workloads.fig41 in
  let ctl = Ppd.Session.controller s in
  let root = Option.get (Ppd.Session.error_node s) in
  ignore root;
  let g = Ppd.Controller.graph ctl in
  (* the paper's picture: a=1, b=2, c=3 feed SubD directly (a, b) and
     through the fictional %3 node (a+b+c) *)
  let sub = Option.get (find_label g "d = call#0(a, b, (a + b) + c)") in
  let incoming = DG.preds g sub in
  let data_srcs =
    List.filter_map
      (fun (src, k) ->
        match k with
        | DG.Data v -> Some (v.Lang.Prog.vname, (DG.node g src).DG.nd_label)
        | _ -> None)
      incoming
    |> List.sort compare
  in
  Alcotest.(check (list (pair string string)))
    "a and b feed SubD directly"
    [ ("a", "a = 1"); ("b", "b = 2") ]
    data_srcs;
  (* the fictional parameter node exists, fed by a, b and c *)
  let fict =
    List.filter_map
      (fun (src, k) -> match k with DG.Dparam 3 -> Some src | _ -> None)
      incoming
  in
  (match fict with
  | [ f ] ->
    let feeds =
      DG.preds g f
      |> List.filter_map (fun (src, k) ->
             match k with
             | DG.Data v -> Some (v.Lang.Prog.vname, (DG.node g src).DG.nd_label)
             | _ -> None)
      |> List.sort compare
    in
    Alcotest.(check (list (pair string string)))
      "%3 fed by a, b, c"
      [ ("a", "a = 1"); ("b", "b = 2"); ("c", "c = 3") ]
      feeds;
    Alcotest.(check bool) "%3 carries the value 6" true
      ((DG.node g f).DG.nd_value = Some (Runtime.Value.Vint 6))
  | l -> Alcotest.failf "expected one fictional node, got %d" (List.length l));
  (* the sub-graph node carries SubD's return value -4 *)
  Alcotest.(check bool) "SubD value" true
    ((DG.node g sub).DG.nd_value = Some (Runtime.Value.Vint (-4)));
  (* s6's node depends on a=1 and on the isqrt call result via sq *)
  let s6 = Option.get (find_label g "a = a + sq") in
  let s6_deps = dep_labels ctl s6 in
  Alcotest.(check bool) "a=1 is a source" true
    (List.mem ("a = 1", "data:a") s6_deps);
  Alcotest.(check bool) "sq call is a source" true
    (List.exists (fun (l, k) -> k = "data:sq" && Util.contains ~sub:"call#1" l) s6_deps)

let test_control_dependence_dynamic () =
  let s = session Workloads.fig41 in
  let ctl = Ppd.Session.controller s in
  ignore (Ppd.Session.error_node s);
  let g = Ppd.Controller.graph ctl in
  (* sq = isqrt(-d) executed in the else branch: control dependent on
     the (d > 0) predicate instance *)
  let sq_call = Option.get (find_label g "sq = call#1(-d)") in
  let ctrl_srcs =
    DG.preds g sq_call
    |> List.filter_map (fun (src, k) ->
           match k with DG.Control -> Some (DG.node g src).DG.nd_label | _ -> None)
  in
  Alcotest.(check (list string)) "governed by the predicate" [ "(d > 0)" ] ctrl_srcs

let test_incremental_building () =
  let s = session Workloads.fig41 in
  let ctl = Ppd.Session.controller s in
  ignore (Ppd.Session.error_node s);
  (* only main's interval was emulated so far *)
  let st0 = Ppd.Controller.stats ctl in
  Alcotest.(check int) "one replay" 1 st0.Ppd.Controller.replays;
  Alcotest.(check int) "three intervals exist" 3 st0.Ppd.Controller.intervals_total;
  (* expanding the SubD sub-graph node replays exactly one more *)
  let g = Ppd.Controller.graph ctl in
  let sub = Option.get (find_label g "d = call#0(a, b, (a + b) + c)") in
  (match Ppd.Controller.expand_subgraph ctl sub with
  | true -> ()
  | false -> Alcotest.fail "expected expansion");
  let st1 = Ppd.Controller.stats ctl in
  Alcotest.(check int) "two replays" 2 st1.Ppd.Controller.replays;
  (* the callee's return node is now inside the graph and owned *)
  let ret = find_label g "return (a * b) - x" in
  Alcotest.(check bool) "callee detail present" true (ret <> None);
  (match ret with
  | Some r ->
    Alcotest.(check bool) "owned by the sub-graph node" true
      ((DG.node g r).DG.nd_owner <> None
      ||
      (* stitched expansion links the call node to the entry *)
      DG.preds g r <> [])
  | None -> ());
  (* expanding again is a no-op *)
  Alcotest.(check bool) "idempotent" true
    (not (Ppd.Controller.expand_subgraph ctl sub))

let test_param_resolution () =
  (* inside an expanded callee, reading a parameter resolves to the
     caller's argument chain *)
  let s = session Workloads.buggy_min in
  let ctl = Ppd.Session.controller s in
  let root = Option.get (Ppd.Session.error_node s) in
  let slice = Ppd.Flowback.backward_slice ctl root in
  let g = Ppd.Controller.graph ctl in
  let labels =
    List.map (fun d -> (DG.node g d.Ppd.Flowback.d_node).DG.nd_label) slice
  in
  (* the full chain from assert back to the three inputs *)
  List.iter
    (fun needed ->
      Alcotest.(check bool) needed true (List.mem needed labels))
    [ "assert(m == 2)"; "m = call#0(a, b, c)"; "a = 7"; "b = 3"; "c = 5" ]

let test_cross_process_flowback () =
  (* fig61: the value printed by p3 came from p2's send, which came from
     p1's send *)
  let s = session Workloads.fig61 in
  let ctl = Ppd.Session.controller s in
  (* find p3's print via its process *)
  let m = Ppd.Session.machine s in
  let p = Ppd.Session.prog s in
  let p3 =
    let rec go pid =
      if (p.Lang.Prog.funcs.(Runtime.Machine.proc_root m pid)).fname = "p3" then pid
      else go (pid + 1)
    in
    go 0
  in
  let last = Option.get (Ppd.Controller.last_event_node ctl ~pid:p3) in
  (* the last event is p3's EXIT; flowback starts at the print before it *)
  let g0 = Ppd.Controller.graph ctl in
  let root =
    List.fold_left
      (fun acc (src, kind) ->
        match kind with Ppd.Dyn_graph.Flow -> src | _ -> acc)
      last
      (Ppd.Dyn_graph.preds g0 last)
  in
  let slice = Ppd.Flowback.backward_slice ctl root in
  let g = Ppd.Controller.graph ctl in
  let kinds =
    List.map (fun d -> (DG.node g d.Ppd.Flowback.d_node).DG.nd_pid) slice
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int)) "slice spans all three processes" [ 0; 1; 2 ] kinds;
  (* the original send of 41 is in the slice *)
  let labels =
    List.map (fun d -> (DG.node g d.Ppd.Flowback.d_node).DG.nd_label) slice
  in
  Alcotest.(check bool) "p1's send in slice" true
    (List.mem "send(c12, 41)" labels)

let test_shared_resolution_across_processes () =
  (* a shared value written by one process and read (after a join) by
     another: the external node resolves to the writer's assignment *)
  let src =
    {|
    shared int g = 0;
    func w() { g = 21; }
    func main() {
      var p = spawn w();
      join(p);
      var x = g * 2;
      assert(x == 0);
    }
    |}
  in
  let s = session src in
  let ctl = Ppd.Session.controller s in
  let root = Option.get (Ppd.Session.error_node s) in
  let slice = Ppd.Flowback.backward_slice ctl root in
  let g = Ppd.Controller.graph ctl in
  let labels =
    List.map (fun d -> (DG.node g d.Ppd.Flowback.d_node).DG.nd_label) slice
  in
  Alcotest.(check bool) "writer found in other process" true
    (List.mem "g = 21" labels)

let test_same_process_earlier_interval () =
  (* shared variable written by an earlier sibling e-block of the same
     process *)
  let src =
    {|
    shared int g = 0;
    func setup() { g = 9; return 0; }
    func use() { var x = g + 1; return x; }
    func main() {
      setup();
      var r = use();
      assert(r == 0);
    }
    |}
  in
  let s = session src in
  let ctl = Ppd.Session.controller s in
  let root = Option.get (Ppd.Session.error_node s) in
  let slice = Ppd.Flowback.backward_slice ctl root in
  let g = Ppd.Controller.graph ctl in
  let labels =
    List.map (fun d -> (DG.node g d.Ppd.Flowback.d_node).DG.nd_label) slice
  in
  Alcotest.(check bool) "setup's write found" true (List.mem "g = 9" labels)

let test_dot_output () =
  let s = session Workloads.buggy_min in
  let ctl = Ppd.Session.controller s in
  ignore (Ppd.Session.error_node s);
  let dot = DG.to_dot (Ppd.Controller.graph ctl) in
  Alcotest.(check bool) "digraph" true (Util.contains ~sub:"digraph ppd" dot);
  Alcotest.(check bool) "has edges" true (Util.contains ~sub:"->" dot)

let test_graph_labels_stable () =
  (* golden-ish: the fig41 graph has exactly these top-level nodes *)
  let s = session Workloads.fig41 in
  let ctl = Ppd.Session.controller s in
  ignore (Ppd.Session.error_node s);
  let labels = graph_labels (Ppd.Controller.graph ctl) in
  List.iter
    (fun l -> Alcotest.(check bool) l true (List.mem l labels))
    [
      "ENTRY main";
      "a = 1";
      "b = 2";
      "c = 3";
      "d = call#0(a, b, (a + b) + c)";
      "(d > 0)";
      "sq = call#1(-d)";
      "a = a + sq";
      "assert(a == 99)";
    ]

let suite =
  ( "flowback",
    [
      Alcotest.test_case "Figure 4.1 graph" `Quick test_fig41_graph;
      Alcotest.test_case "dynamic control dependence" `Quick
        test_control_dependence_dynamic;
      Alcotest.test_case "incremental building" `Quick test_incremental_building;
      Alcotest.test_case "parameter resolution" `Quick test_param_resolution;
      Alcotest.test_case "cross-process flowback" `Quick test_cross_process_flowback;
      Alcotest.test_case "shared write in other process" `Quick
        test_shared_resolution_across_processes;
      Alcotest.test_case "earlier interval same process" `Quick
        test_same_process_earlier_interval;
      Alcotest.test_case "dot output" `Quick test_dot_output;
      Alcotest.test_case "fig41 node labels" `Quick test_graph_labels_stable;
    ] )
