(* Figure 6.1: three processes connected by synchronous (blocking-send)
   channels. P1 sends to P2 (nodes n3/n4, sync edge), P2 is unblocked
   (n5, sync edge back), P2 forwards to P3. We print the parallel
   dynamic graph and then ask flowback to explain the value P3 printed —
   the controller chases the dependence across both channel hops and all
   three processes' log intervals. *)

let () =
  let session = Ppd.Session.run Workloads.fig61 in
  Printf.printf "halt: %s\noutput: %s\n" (Ppd.Session.explain_halt session)
    (Ppd.Session.output session);

  print_endline "=== parallel dynamic graph (Figure 6.1) ===";
  let pd = Ppd.Controller.pardyn (Ppd.Session.controller session) in
  Format.printf "%a@.@." Ppd.Pardyn.pp pd;

  (* Find p3's print node and flow back across processes. *)
  let ctl = Ppd.Session.controller session in
  let printing_pid =
    (* p3 is the process whose root function contains the print *)
    let m = Ppd.Session.machine session in
    let p = Ppd.Session.prog session in
    let rec find pid =
      if pid >= Runtime.Machine.nprocs m then 0
      else
        let f = p.Lang.Prog.funcs.(Runtime.Machine.proc_root m pid) in
        if f.Lang.Prog.fname = "p3" then pid else find (pid + 1)
    in
    find 0
  in
  match Ppd.Controller.last_event_node ctl ~pid:printing_pid with
  | None -> print_endline "no events for p3"
  | Some exit_node ->
    (* the last event is p3's exit; its flow predecessor is the print *)
    let g = Ppd.Controller.graph ctl in
    let print_node =
      List.fold_left
        (fun acc (src, kind) ->
          match kind with Ppd.Dyn_graph.Flow -> Some src | _ -> acc)
        None
        (Ppd.Dyn_graph.preds g exit_node)
    in
    let root = Option.value ~default:exit_node print_node in
    print_endline "=== cross-process flowback of the printed value ===";
    Format.printf "%a@." (Ppd.Flowback.pp_explain ~max_depth:6 ctl) root;
    let st = Ppd.Controller.stats ctl in
    Printf.printf "emulated %d of %d intervals to answer this query\n"
      st.Ppd.Controller.replays st.Ppd.Controller.intervals_total
