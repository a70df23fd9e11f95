(* End-to-end sessions and dynamic soundness properties that tie the
   static analyses to observed executions. *)

module P = Lang.Prog

let test_session_surface () =
  let s = Ppd.Session.run Workloads.fixed_bank in
  Alcotest.(check string) "output" "20\n" (Ppd.Session.output s);
  Alcotest.(check bool) "halt" true (Ppd.Session.halt s = Runtime.Machine.Finished);
  let races =
    match
      Serve.Query.race ~config:Ppd.Controller.default_config
        (Serve.Render.buffer_sink (Buffer.create 64))
        (Serve.Query.of_session s)
    with
    | Ok (st, _) -> st.Ppd.Race.races
    | Error d -> Alcotest.failf "race: %s" d.Lang.Diag.d_message
  in
  Alcotest.(check (list int)) "no races" []
    (List.map (fun r -> r.Ppd.Race.rc_edge1) races);
  Alcotest.(check bool) "explain mentions finished" true
    (Util.contains ~sub:"finished" (Ppd.Session.explain_halt s))

(* Every dynamic read/write observed inside an interval must be inside
   the block's static USED/DEFINED sets — the soundness condition that
   makes prelogs/postlogs complete. *)
let used_defined_sound src sched =
  let eb, _h, _log, tr, _m = Util.run_instrumented ~sched src in
  let _p = eb.Analysis.Eblock.prog in
  (* map each event to the function whose frame executes it: track via
     enter/leave per process *)
  let stacks = Hashtbl.create 8 in
  let stack pid = Option.value ~default:[] (Hashtbl.find_opt stacks pid) in
  let ok = ref true in
  Array.iter
    (fun (r : Oracle.Full_trace.rec_) ->
      let pid = r.tr_pid in
      match r.tr_ev with
      | Runtime.Event.E_proc_start { fid; _ } -> Hashtbl.replace stacks pid [ fid ]
      | Runtime.Event.E_enter { fid; _ } ->
        Hashtbl.replace stacks pid (fid :: stack pid)
      | Runtime.Event.E_leave _ | Runtime.Event.E_proc_exit _ ->
        Hashtbl.replace stacks pid (match stack pid with [] -> [] | _ :: t -> t)
      | Runtime.Event.E_loop_enter _ | Runtime.Event.E_loop_exit _ -> ()
      | Runtime.Event.E_stmt { reads; write; _ } -> (
        match stack pid with
        | [] -> ()
        | fid :: _ ->
          let in_scope (v : P.var) = P.is_global v || v.vfid = fid in
          List.iter
            (fun (rw : Runtime.Event.rw) ->
              if in_scope rw.var
                 && not (Analysis.Varset.mem rw.var.vid eb.Analysis.Eblock.used.(fid))
              then ok := false)
            reads;
          Option.iter
            (fun (rw : Runtime.Event.rw) ->
              if in_scope rw.var
                 && not
                      (Analysis.Varset.mem rw.var.vid
                         eb.Analysis.Eblock.defined.(fid))
              then ok := false)
            write))
    tr.Oracle.Full_trace.recs;
  !ok

let test_soundness_fixed () =
  List.iter
    (fun (name, src) ->
      match Util.compile_err src with
      | Some _ -> ()
      | None ->
        Alcotest.(check bool) name true
          (used_defined_sound src Runtime.Sched.default))
    Workloads.all_fixed

let soundness_prop =
  Util.qtest ~count:30 "USED/DEFINED sound on random programs"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      used_defined_sound
        (Gen.parallel ~protect:`Sometimes seed)
        (Runtime.Sched.Random_seed sseed))

let test_error_node_on_finish () =
  let s = Ppd.Session.run Workloads.foo3 in
  match Ppd.Session.error_node s with
  | Some node ->
    let g = Ppd.Controller.graph (Ppd.Session.controller s) in
    (* the last event of a finished main is its EXIT *)
    Alcotest.(check bool) "exit node" true
      (match (Ppd.Dyn_graph.node g node).Ppd.Dyn_graph.nd_kind with
      | Ppd.Dyn_graph.N_exit _ -> true
      | _ -> false)
  | None -> Alcotest.fail "expected a node"

let test_deadlocked_session () =
  let sched = Runtime.Sched.Scripted [ 0; 0; 0; 1; 1; 2; 2; 1; 2 ] in
  let s = Ppd.Session.run ~sched Workloads.deadlock_ab in
  Alcotest.(check bool) "deadlock reported" true
    (Util.contains ~sub:"deadlock" (Ppd.Session.explain_halt s));
  Alcotest.(check bool) "analysis positive" true
    (Ppd.Deadlock.is_deadlocked (Ppd.Session.deadlock s))

let suite =
  ( "session",
    [
      Alcotest.test_case "surface" `Quick test_session_surface;
      Alcotest.test_case "USED/DEFINED sound (fixed corpus)" `Quick
        test_soundness_fixed;
      soundness_prop;
      Alcotest.test_case "error node after finish" `Quick test_error_node_on_finish;
      Alcotest.test_case "deadlocked session" `Quick test_deadlocked_session;
    ] )
