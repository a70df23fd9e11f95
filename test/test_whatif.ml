(* What-if experiments (§5.7): replay an interval from its restored
   prelog state with perturbed values and observe the divergent
   behaviour, without touching the recorded execution.

   Only values the block actually receives from its prelog (parameters,
   shared globals, values live at the block boundary) are meaningful to
   perturb — a variable the block immediately reassigns just loses the
   override, like in the paper's restoration model. *)

let session ?sched src = Ppd.Session.run ?sched src

(* The controller's what-if over a session's log: the outcome only. *)
let what_if s ~pid ~iv_id ~overrides =
  Ppd.Controller.what_if ~iv_id (Ppd.Session.controller s) ~pid ~overrides
  |> Result.map snd

let iv_of_func s pid fname =
  let p = Ppd.Session.prog s in
  let ivs = Trace.Log.intervals (Ppd.Session.log s) ~pid in
  (Array.to_list ivs
  |> List.find (fun iv ->
         p.Lang.Prog.funcs.(iv.Trace.Log.iv_fid).fname = fname))
    .Trace.Log.iv_id

let root_iv_id s pid =
  let ivs = Trace.Log.intervals (Ppd.Session.log s) ~pid in
  (Array.to_list ivs
  |> List.find (fun iv -> iv.Trace.Log.iv_parent = None))
    .Trace.Log.iv_id

let return_value o =
  List.fold_left
    (fun acc (_, ev) ->
      match ev with
      | Runtime.Event.E_stmt
          { kind = Runtime.Event.K_return { value = Some v }; _ } ->
        Some v
      | _ -> acc)
    None o.Ppd.Emulator.events

let test_identity_whatif () =
  (* overriding nothing reproduces the original behaviour *)
  let s = session Workloads.foo3 in
  match what_if s ~pid:0 ~iv_id:(root_iv_id s 0) ~overrides:[] with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check (option string)) "no fault" None o.Ppd.Emulator.fault;
    Alcotest.(check string) "same output" (Ppd.Session.output s)
      o.Ppd.Emulator.output

let test_perturb_parameter () =
  (* replay min3's own interval with parameter y forced to 2: the
     recomputed minimum becomes 2 instead of 3 *)
  let s = session Workloads.buggy_min in
  let iv = iv_of_func s 0 "min3" in
  (match what_if s ~pid:0 ~iv_id:iv ~overrides:[] with
  | Ok o ->
    Alcotest.(check bool) "baseline returns 3" true
      (return_value o = Some (Runtime.Value.Vint 3))
  | Error e -> Alcotest.fail e);
  match what_if s ~pid:0 ~iv_id:iv ~overrides:[ ("y", 2) ] with
  | Ok o ->
    Alcotest.(check bool) "what-if returns 2" true
      (return_value o = Some (Runtime.Value.Vint 2))
  | Error e -> Alcotest.fail e

let branchy_shared_src =
  {|
  shared int a0 = 1;

  func subd(a, b, x) {
    return a * b - x;
  }

  func main() {
    var a = a0;
    var b = 2;
    var c = 3;
    var d = subd(a, b, a + b + c);
    var sq = 0;
    if (d > 0) {
      sq = d;
    } else {
      sq = -d;
    }
    print(sq);
  }
  |}

let test_whatif_changes_control_flow () =
  (* originally a0 = 1: d = 1*2-6 = -4, else branch, prints 4. Forcing
     a0 = 50: d = 100-55 = 45 > 0, then branch, prints 45 — and the
     nested subd call is genuinely re-executed with the new arguments *)
  let s = session branchy_shared_src in
  Alcotest.(check string) "original output" "4\n" (Ppd.Session.output s);
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0)
      ~overrides:[ ("a0", 50) ]
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check (option string)) "no fault" None o.Ppd.Emulator.fault;
    Alcotest.(check string) "then branch output" "45\n" o.Ppd.Emulator.output;
    let pred_true =
      List.exists
        (fun (_, ev) ->
          match ev with
          | Runtime.Event.E_stmt { kind = Runtime.Event.K_pred true; _ } -> true
          | _ -> false)
        o.Ppd.Emulator.events
    in
    Alcotest.(check bool) "then branch taken" true pred_true

let test_whatif_shared_override () =
  let src =
    {|
    shared int limit = 10;
    func main() {
      var i = 0;
      var n = 0;
      while (i < limit) {
        n = n + i;
        i = i + 1;
      }
      print(n);
    }
    |}
  in
  let s = session src in
  Alcotest.(check string) "original sum" "45\n" (Ppd.Session.output s);
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0)
      ~overrides:[ ("limit", 3) ]
  with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check string) "what-if sum" "3\n" o.Ppd.Emulator.output

let sync_branch_src =
  {|
  shared int gate = -1;
  chan c;
  func main() {
    var x = gate;
    if (x > 0) {
      send(c, x);
      var y = 0;
      recv(c, y);
      print(y);
    } else {
      print(x);
    }
  }
  |}

let test_whatif_away_from_sync () =
  (* the original took the sync-free branch; a perturbation that stays
     on sync-free paths replays fully *)
  let s = session sync_branch_src in
  Alcotest.(check string) "original" "-1\n" (Ppd.Session.output s);
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0)
      ~overrides:[ ("gate", -5) ]
  with
  | Error e -> Alcotest.fail e
  | Ok o -> Alcotest.(check string) "else output" "-5\n" o.Ppd.Emulator.output

let test_whatif_sync_divergence_detected () =
  (* perturbing the gate makes the replay reach a send the original
     never executed; the outcome reports the divergence instead of
     fabricating synchronization *)
  let s = session sync_branch_src in
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0)
      ~overrides:[ ("gate", 5) ]
  with
  | Error e -> Alcotest.fail e
  | Ok o -> (
    match o.Ppd.Emulator.fault with
    | Some msg ->
      Alcotest.(check bool) "explains divergence" true
        (Util.contains ~sub:"diverged" msg)
    | None -> Alcotest.fail "expected a divergence fault")

(* The what-if replay reaches a sync statement other than the one the
   log records next: the fault names both statements. *)
let test_whatif_wrong_sync_named () =
  let src =
    {|
    shared int gate = -1;
    sem s = 1;
    func main() {
      var x = gate;
      if (x > 0) {
        P(s);
      } else {
        V(s);
      }
      print(x);
    }
    |}
  in
  let s = session src in
  let sid_of pred =
    (Array.to_list (Ppd.Session.prog s).Lang.Prog.stmts
    |> List.find (fun (st : Lang.Prog.stmt) -> pred st.desc))
      .Lang.Prog.sid
  in
  let p = sid_of (function Lang.Prog.Sp _ -> true | _ -> false)
  and v = sid_of (function Lang.Prog.Sv _ -> true | _ -> false) in
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0) ~overrides:[ ("gate", 5) ]
  with
  | Error e -> Alcotest.fail e
  | Ok o ->
    Alcotest.(check (option string))
      "divergence text"
      (Some
         (Printf.sprintf
            "what-if execution diverged: reached s%d but the log's next \
             synchronization was at s%d"
            p v))
      o.Ppd.Emulator.fault

let test_whatif_fault_injection () =
  (* driving a shared divisor to zero reproduces a crash that never
     happened — the experiment in the other direction *)
  let src =
    {|
    shared int divisor = 4;
    func main() {
      var q = 100 / divisor;
      print(q);
    }
    |}
  in
  let s = session src in
  Alcotest.(check string) "original" "25\n" (Ppd.Session.output s);
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0)
      ~overrides:[ ("divisor", 0) ]
  with
  | Error e -> Alcotest.fail e
  | Ok o -> (
    match o.Ppd.Emulator.fault with
    | Some msg ->
      Alcotest.(check bool) "division fault" true
        (Util.contains ~sub:"division" msg)
    | None -> Alcotest.fail "expected an injected fault")

let test_unknown_variable () =
  let s = session Workloads.foo3 in
  match
    what_if s ~pid:0 ~iv_id:(root_iv_id s 0)
      ~overrides:[ ("nonexistent", 1) ]
  with
  | Error e ->
    Alcotest.(check bool) "mentions the name" true
      (Util.contains ~sub:"nonexistent" e)
  | Ok _ -> Alcotest.fail "expected an error"

let test_bad_interval () =
  let s = session Workloads.foo3 in
  match what_if s ~pid:0 ~iv_id:99 ~overrides:[] with
  | Error e ->
    Alcotest.(check bool) "mentions the interval" true (Util.contains ~sub:"99" e)
  | Ok _ -> Alcotest.fail "expected an error"

(* A process the log does not record is an answer, not a crash, with
   or without an interval named. *)
let test_bad_process () =
  let ctl = Ppd.Session.controller (session Workloads.foo3) in
  List.iter
    (fun iv_id ->
      match Ppd.Controller.what_if ?iv_id ctl ~pid:5 ~overrides:[] with
      | Error e ->
        Alcotest.(check bool) e true
          (Util.contains ~sub:"process 5 has no interval" e)
      | Ok _ -> Alcotest.fail "expected an error")
    [ None; Some 0 ]

(* The strongest identity property: a what-if replay with no overrides
   regenerates the root interval's complete event stream — including
   nested blocks, which what-if re-executes rather than skips — exactly
   as the full trace recorded it. *)
let whatif_identity_prop =
  Util.qtest ~count:30 "what-if identity = full trace (random programs)"
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let src = Gen.sequential seed in
      let eb, _h, log, tr, _m = Util.run_instrumented src in
      let ivs = Trace.Log.intervals log ~pid:0 in
      let root =
        Array.to_list ivs
        |> List.find (fun iv -> iv.Trace.Log.iv_parent = None)
      in
      let o =
        Ppd.Emulator.replay ~validate:false eb log ~interval:root
      in
      let expected =
        Array.to_list tr.Trace.Full_trace.recs
        |> List.filter_map (fun (r : Trace.Full_trace.rec_) ->
               if
                 r.tr_pid = 0
                 && r.tr_seq >= root.Trace.Log.iv_seq_start
                 && (match root.Trace.Log.iv_seq_end with
                    | Some e -> r.tr_seq < e
                    | None -> true)
               then Some (r.tr_seq, r.tr_ev)
               else None)
      in
      List.length expected = List.length o.Ppd.Emulator.events
      && List.for_all2
           (fun (s1, e1) (s2, e2) -> s1 = s2 && Util.event_equiv e1 e2)
           expected o.Ppd.Emulator.events)

let suite =
  ( "whatif",
    [
      Alcotest.test_case "identity" `Quick test_identity_whatif;
      Alcotest.test_case "perturb a parameter" `Quick test_perturb_parameter;
      Alcotest.test_case "control flow changes" `Quick
        test_whatif_changes_control_flow;
      Alcotest.test_case "shared override" `Quick test_whatif_shared_override;
      Alcotest.test_case "sync-free perturbation" `Quick
        test_whatif_away_from_sync;
      Alcotest.test_case "sync divergence" `Quick
        test_whatif_sync_divergence_detected;
      Alcotest.test_case "wrong sync statement named" `Quick
        test_whatif_wrong_sync_named;
      Alcotest.test_case "fault injection" `Quick test_whatif_fault_injection;
      Alcotest.test_case "unknown variable" `Quick test_unknown_variable;
      Alcotest.test_case "bad interval" `Quick test_bad_interval;
      Alcotest.test_case "bad process" `Quick test_bad_process;
      whatif_identity_prop;
    ] )
