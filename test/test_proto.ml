(* Protocol product exploration: deadlock certificates (and their
   guided replay), verdicts, orphan/leak findings, must-ordering facts
   and the MHP refinement, plus the qcheck no-false-negative oracle. *)

open Analysis

let analyze ?budget ?bound src = Proto.analyze ?budget ?bound (Util.compile src)

let certs_of (r : Proto.t) =
  match r.Proto.verdict with Proto.Deadlocks cs -> cs | _ -> []

(* ------------------------------------------------------------------ *)
(* deadlock_ab: the canonical AB/BA inversion.                          *)
(* ------------------------------------------------------------------ *)

let test_deadlock_ab_certificate () =
  let r = analyze Workloads.deadlock_ab in
  (match r.Proto.verdict with
  | Proto.Deadlocks (c :: _) ->
    Alcotest.(check bool) "cyclic wait" true (c.cert_kind = Proto.Cyclic_wait);
    Alcotest.(check bool) "has steps" true (c.cert_steps <> []);
    Alcotest.(check int) "three parties blocked" 3
      (List.length c.cert_blocked)
  | v -> Alcotest.failf "expected deadlock, got %s" (Proto.verdict_name v));
  Alcotest.(check bool) "not truncated" false r.Proto.stats.truncated

let test_deadlock_ab_replays () =
  let p = Util.compile Workloads.deadlock_ab in
  let r = Proto.analyze p in
  match certs_of r with
  | [] -> Alcotest.fail "no certificate"
  | c :: _ -> (
    match Runtime.Cert_replay.validate p c with
    | Runtime.Cert_replay.Diverged why ->
      Alcotest.failf "certificate diverged: %s" why
    | Runtime.Cert_replay.Confirmed { schedule; blocked } ->
      Alcotest.(check bool) "nonempty schedule" true (schedule <> []);
      Alcotest.(check bool) "someone blocked" true (blocked <> []);
      (* the recorded interleaving reproduces the deadlock through the
         ordinary scripted scheduler *)
      Alcotest.(check bool) "scripted replay deadlocks" true
        (Runtime.Cert_replay.confirm_scripted p schedule))

(* ------------------------------------------------------------------ *)
(* Verdicts on the fixed corpus.                                        *)
(* ------------------------------------------------------------------ *)

let test_fixed_corpus_deadlock_free () =
  List.iter
    (fun (name, src) ->
      if name <> "deadlock_ab" then
        let r = analyze src in
        match r.Proto.verdict with
        | Proto.Deadlock_free | Proto.Deadlock_free_bounded -> ()
        | Proto.Unsupported _ -> () (* modelling limit, not a false alarm *)
        | Proto.Deadlocks _ ->
          Alcotest.failf "%s: spurious deadlock certificate" name)
    Workloads.all_fixed

let test_rpc_facts () =
  let r = analyze Workloads.rpc in
  Alcotest.(check bool) "deadlock-free" true
    (r.Proto.verdict = Proto.Deadlock_free);
  Alcotest.(check bool) "rendezvous produces must-ordering facts" true
    (r.Proto.facts <> [])

(* ------------------------------------------------------------------ *)
(* Orphans, dead receives, leaks.                                       *)
(* ------------------------------------------------------------------ *)

let test_orphan_send () =
  let r =
    analyze
      {|
chan c[4];
func main() {
  send(c, 1);
  send(c, 2);
  print(0);
}
|}
  in
  Alcotest.(check bool) "deadlock-free (buffered)" true
    (r.Proto.verdict = Proto.Deadlock_free);
  Alcotest.(check int) "both sends orphaned" 2
    (List.length r.Proto.orphan_sends)

let test_orphan_recv_certificate () =
  let r =
    analyze
      {|
chan c[0];
func waiter() {
  var x = 0;
  recv(c, x);
}
func main() {
  var p = spawn waiter();
  join(p);
}
|}
  in
  match certs_of r with
  | c :: _ ->
    Alcotest.(check bool) "orphan recv kind" true
      (c.Proto.cert_kind = Proto.Orphan_recv);
    Alcotest.(check bool) "dead recv recorded" true (r.Proto.dead_recvs <> [])
  | [] -> Alcotest.fail "expected an orphan-recv deadlock"

let test_sem_leak () =
  let r =
    analyze
      {|
sem lock = 1;
func main() {
  P(lock);
  print(1);
}
|}
  in
  Alcotest.(check (list (pair int int))) "lock leaks one token" [ (0, 1) ]
    r.Proto.sem_leaks

let test_sem_starvation_certificate () =
  let r =
    analyze
      {|
sem gate = 0;
func main() {
  P(gate);
}
|}
  in
  match certs_of r with
  | c :: _ ->
    Alcotest.(check bool) "starvation kind" true
      (c.Proto.cert_kind = Proto.Sem_starvation)
  | [] -> Alcotest.fail "expected a semaphore-starvation deadlock"

(* ------------------------------------------------------------------ *)
(* MHP refinement: protocol discharges strictly more pairs.             *)
(* ------------------------------------------------------------------ *)

let refinement_delta src =
  let p = Util.compile src in
  let base = Mhp.compute p in
  let r = Proto.analyze ~mhp:base p in
  let _, d0 = Proto.discharged_pairs p base in
  match r.Proto.refined with
  | None -> Alcotest.fail "refinement unavailable"
  | Some m ->
    let _, d1 = Proto.discharged_pairs p m in
    (d0, d1)

let test_ping_pong_discharges_everything () =
  let src = Workloads.ping_pong ~rounds:2 in
  let p = Util.compile src in
  let r = Proto.analyze p in
  Alcotest.(check bool) "deadlock-free" true
    (r.Proto.verdict = Proto.Deadlock_free);
  let d0, d1 = refinement_delta src in
  Alcotest.(check bool) "strictly more discharged" true (d1 > d0);
  (* and the race analysis agrees: no report survives the refinement *)
  match r.Proto.refined with
  | None -> Alcotest.fail "refinement unavailable"
  | Some m ->
    Alcotest.(check bool) "lockset alone keeps races" true
      (Static_race.analyze ~mhp:(Mhp.compute p) p <> []);
    Alcotest.(check int) "proto discharges them" 0
      (List.length (Static_race.analyze ~mhp:m p))

let test_config_pipeline_discharges_more () =
  List.iter
    (fun workers ->
      let d0, d1 =
        refinement_delta (Workloads.config_pipeline ~workers ~rounds:2)
      in
      if d1 <= d0 then
        Alcotest.failf "workers=%d: refined %d <= base %d" workers d1 d0)
    [ 2; 3 ]

let test_refinement_never_loses_pairs () =
  (* the refined relation is a superset of base discharge on every
     bundled workload that supports refinement *)
  List.iter
    (fun (name, src) ->
      let p = Util.compile src in
      let base = Mhp.compute p in
      let r = Proto.analyze ~mhp:base p in
      match r.Proto.refined with
      | None -> ()
      | Some m ->
        let _, d0 = Proto.discharged_pairs p base in
        let _, d1 = Proto.discharged_pairs p m in
        if d1 < d0 then Alcotest.failf "%s: refinement regressed" name)
    Workloads.all_fixed

let test_racy_bank_still_racy () =
  (* soundness: refinement must not discharge genuine races *)
  let p = Util.compile Workloads.racy_bank in
  let r = Proto.analyze p in
  match r.Proto.refined with
  | None -> ()
  | Some m ->
    Alcotest.(check bool) "racy bank keeps its races" true
      (Static_race.analyze ~mhp:m p <> [])

(* ------------------------------------------------------------------ *)
(* Refined MHP also reaches sync-unit prelog pruning through            *)
(* Eblock.analyze ?mhp: refinement may only shrink the logged values,   *)
(* and the pruned log still replays faithfully.                         *)
(* ------------------------------------------------------------------ *)

let sync_prelog_vals eb =
  let _, log, _ = Trace.Logger.run_logged eb in
  Array.to_seq log.Trace.Log.entries
  |> Seq.fold_left
       (fun acc entries ->
         Array.fold_left
           (fun acc e ->
             match e with
             | Trace.Log.Sync_prelog { vals; _ } -> acc + List.length vals
             | _ -> acc)
           acc entries)
       0

let test_refined_mhp_prunes_prelogs () =
  (* never more entries than the base relation, on any fixed workload *)
  List.iter
    (fun (name, src) ->
      let p = Util.compile src in
      let base = Mhp.compute p in
      match (Proto.analyze ~mhp:base p).Proto.refined with
      | None -> ()
      | Some m ->
        let b = sync_prelog_vals (Eblock.analyze ~mhp:base p) in
        let r = sync_prelog_vals (Eblock.analyze ~mhp:m p) in
        if r > b then
          Alcotest.failf "%s: refined MHP grew the sync prelog (%d > %d)"
            name r b)
    (List.filter (fun (n, _) -> n <> "deadlock_ab") Workloads.all_fixed);
  (* and strictly fewer where the protocol orders what spawn/join
     cannot: ping_pong's semaphore alternation *)
  let src = Workloads.ping_pong ~rounds:2 in
  let p = Util.compile src in
  let base = Mhp.compute p in
  match (Proto.analyze ~mhp:base p).Proto.refined with
  | None -> Alcotest.fail "refinement unavailable"
  | Some m ->
    let b = sync_prelog_vals (Eblock.analyze ~mhp:base p) in
    let r = sync_prelog_vals (Eblock.analyze ~mhp:m p) in
    Alcotest.(check bool)
      (Printf.sprintf "refined %d < base %d" r b)
      true (r < b);
    (* the slimmer log still replays: diff every interval's emulation
       against a full trace of the same execution *)
    let eb = Eblock.analyze ~mhp:m p in
    let logger = Trace.Logger.create eb in
    let ft = Oracle.Full_trace.create () in
    let hooks =
      Oracle.Hooks.both
        (Trace.Logger.factory logger)
        (Oracle.Full_trace.factory ft)
    in
    let machine = Runtime.Machine.create ~sched:Runtime.Sched.default ~hooks p in
    ignore (Runtime.Machine.run machine);
    let log = Trace.Logger.finish logger in
    let tr = Oracle.Full_trace.finish ft in
    let checked = Util.check_replay_equivalence eb log tr in
    Alcotest.(check bool) "intervals replayed" true (checked > 0)

(* ------------------------------------------------------------------ *)
(* qcheck oracle over random protocol programs.                         *)
(*                                                                      *)
(* Gen.protocol emits straight-line two-worker programs, for which the  *)
(* abstract model is exact: any deadlock a concrete scheduler reaches   *)
(* must be predicted (no false negatives), and a complete deadlock-free *)
(* verdict must mean no scheduler can deadlock.                         *)
(* ------------------------------------------------------------------ *)

let schedulers seed =
  [
    Runtime.Sched.Round_robin 1;
    Runtime.Sched.Round_robin 3;
    Runtime.Sched.Random_seed seed;
    Runtime.Sched.Random_seed (seed + 1);
    Runtime.Sched.Random_seed ((seed * 7) + 13);
  ]

let machine_deadlocks p sched =
  let m = Runtime.Machine.create ~sched ~max_steps:50_000 p in
  match Runtime.Machine.run m with
  | Runtime.Machine.Deadlock _ -> true
  | _ -> false

let oracle seed =
  let src = Gen.protocol seed in
  let p = Util.compile src in
  let r = Proto.analyze p in
  let concrete =
    List.exists (fun s -> machine_deadlocks p s) (schedulers seed)
  in
  (match r.Proto.verdict with
  | Proto.Unsupported why ->
    QCheck2.Test.fail_reportf "unsupported protocol program: %s" why
  | _ -> ());
  if concrete && certs_of r = [] then
    QCheck2.Test.fail_reportf
      "false negative: a scheduler deadlocked but proto said %s\n%s"
      (Proto.verdict_name r.Proto.verdict)
      src;
  (if r.Proto.verdict = Proto.Deadlock_free && concrete then
     QCheck2.Test.fail_reportf "complete deadlock-free verdict contradicted\n%s"
       src);
  (* predicted deadlocks on straight-line programs must replay *)
  (match certs_of r with
  | [] -> ()
  | certs ->
    let confirmed =
      List.exists
        (fun c ->
          match Runtime.Cert_replay.validate p c with
          | Runtime.Cert_replay.Confirmed _ -> true
          | Runtime.Cert_replay.Diverged _ -> false)
        certs
    in
    if not confirmed then
      QCheck2.Test.fail_reportf "no certificate replays\n%s" src);
  true

let qcheck_oracle =
  Util.qtest ~count:60 "proto oracle on random protocol programs"
    QCheck2.Gen.(int_range 0 100_000)
    oracle

let suite =
  ( "proto",
    [
      Alcotest.test_case "deadlock_ab certificate" `Quick
        test_deadlock_ab_certificate;
      Alcotest.test_case "deadlock_ab replays" `Quick test_deadlock_ab_replays;
      Alcotest.test_case "fixed corpus deadlock-free" `Quick
        test_fixed_corpus_deadlock_free;
      Alcotest.test_case "rpc must-ordering facts" `Quick test_rpc_facts;
      Alcotest.test_case "orphan send" `Quick test_orphan_send;
      Alcotest.test_case "orphan recv certificate" `Quick
        test_orphan_recv_certificate;
      Alcotest.test_case "sem leak" `Quick test_sem_leak;
      Alcotest.test_case "sem starvation certificate" `Quick
        test_sem_starvation_certificate;
      Alcotest.test_case "ping_pong discharges everything" `Quick
        test_ping_pong_discharges_everything;
      Alcotest.test_case "config_pipeline discharges more" `Quick
        test_config_pipeline_discharges_more;
      Alcotest.test_case "refinement never regresses" `Quick
        test_refinement_never_loses_pairs;
      Alcotest.test_case "racy bank stays racy" `Quick
        test_racy_bank_still_racy;
      Alcotest.test_case "refined MHP prunes sync prelogs" `Quick
        test_refined_mhp_prunes_prelogs;
      qcheck_oracle;
    ] )
