(* E-block replay steps on the bytecode VM; the AST emulator it replaced
   is kept in test/oracle as the oracle. On every interval of every
   example and random program, under both schedulers, both log tiers,
   loop e-blocks off and on and leaf inlining off and on, the two must
   give the same outcome — validated, and as what-if replays with and
   without overrides. *)

module L = Trace.Log

let policies =
  List.concat_map
    (fun loops ->
      List.map
        (fun inline ->
          {
            Analysis.Eblock.leaf_inline_max_stmts = (if inline then 3 else 0);
            loop_block_min_body = (if loops then 1 else 0);
          })
        [ false; true ])
    [ false; true ]

let scheds seed =
  [ Runtime.Sched.Round_robin 3; Runtime.Sched.Random_seed ((seed * 31) + 7) ]

(* The content log the debugging phase replays: recorded directly, or
   reconstructed from an order-tier recording. *)
let content_log ~order eb sched =
  let tier =
    if order then L.order_tier ~sched ~max_steps:200_000 else L.T_content
  in
  let _halt, log, _m =
    Trace.Logger.run_logged ~sched ~max_steps:200_000 ~tier eb
  in
  if order then Ppd.Reconstruct.reconstruct eb log else log

(* What-if override sets: none, and each global set to 7. *)
let whatif (prog : Lang.Prog.t) =
  []
  :: List.filter_map
       (fun (v : Lang.Prog.var) ->
         match v.vty with
         | Lang.Prog.Tint -> Some [ (v, Runtime.Value.Vint 7) ]
         | Lang.Prog.Tarr _ -> None)
       (Array.to_list prog.globals)

let agree ~seed name src =
  let prog = Util.compile src in
  let whatif = whatif prog in
  List.iter
    (fun policy ->
      let eb = Analysis.Eblock.analyze ~policy prog in
      List.iter
        (fun sched ->
          List.iter
            (fun order ->
              match
                Oracle.Replay_diff.check ~whatif eb (content_log ~order eb sched)
              with
              | Ok _ -> ()
              | Error e ->
                Alcotest.failf "%s (%s, %s, loops %d, inline %d): %s\n%s" name
                  (Runtime.Sched.string_of_policy sched)
                  (if order then "order" else "content")
                  policy.loop_block_min_body policy.leaf_inline_max_stmts e src)
            [ false; true ])
        (scheds seed))
    policies

let test_examples () =
  List.iter (fun (name, src) -> agree ~seed:1 name src) Workloads.all_fixed

let random name gen =
  Util.qtest ~count:15 name QCheck2.Gen.int (fun seed ->
      agree ~seed name (gen seed);
      true)

(* Compare every interval of [log]; [count] sees each product replay. *)
let agree_on_log ~count what eb log =
  for pid = 0 to log.L.nprocs - 1 do
    Array.iter
      (fun iv ->
        let p = Oracle.Replay_diff.product eb log iv
        and o = Oracle.Replay_diff.oracle eb log iv in
        count p;
        if p <> o then
          Alcotest.failf "%s p%d interval %d:\nvm:\n%soracle:\n%s" what pid
            iv.L.iv_id
            (Oracle.Replay_diff.describe p)
            (Oracle.Replay_diff.describe o))
      (L.intervals log ~pid)
  done

let mismatch_with ~sub n = function
  | Oracle.Replay_diff.Mismatch (_, m) when Util.contains ~sub m -> incr n
  | _ -> ()

(* Replaying a racy log can stop with a mismatch; the oracle must stop
   at the same event with the same text. *)
let test_racy_logs () =
  let prog =
    Util.compile
      {|
      shared int g = 0;
      func writer(x) { g = g + 12; return x; }
      func reader(x) { var b = g; if (b != 0) { print(b); } return x; }
      func main() { var p1 = spawn reader(1); var p2 = spawn writer(2); join(p1); join(p2); }
      |}
  in
  let eb = Analysis.Eblock.analyze prog in
  let n = ref 0 in
  for seed = 1 to 20 do
    agree_on_log
      ~count:(mismatch_with ~sub:"" n)
      (Printf.sprintf "random:%d" seed)
      eb
      (content_log ~order:false eb (Runtime.Sched.Random_seed seed))
  done;
  Alcotest.(check bool) "some replay mismatched" true (!n > 0)

(* A log whose prelogs lost their shared values: the first read of a
   shared variable hits an overlay cell nothing covered, which must be
   the same Replay_mismatch on both steppers, whether the VM or the
   driver's evaluator reads it. *)
let strip_shared (prog : Lang.Prog.t) (log : L.t) =
  let keep =
    List.filter (fun (vid, _) ->
        match prog.vars.(vid).vscope with
        | Lang.Prog.Local _ -> true
        | Lang.Prog.Global _ -> false)
  in
  {
    log with
    L.entries =
      Array.map
        (Array.map (function
          | L.Prelog p -> L.Prelog { p with vals = keep p.vals }
          | L.Sync_prelog p -> L.Sync_prelog { p with vals = keep p.vals }
          | e -> e))
        log.L.entries;
  }

let test_uncovered_shared () =
  let n = ref 0 in
  List.iter
    (fun (name, src) ->
      let prog = Util.compile src in
      List.iter
        (fun policy ->
          let eb = Analysis.Eblock.analyze ~policy prog in
          let log = content_log ~order:false eb (Runtime.Sched.Round_robin 3) in
          agree_on_log
            ~count:(mismatch_with ~sub:"not covered by any prelog" n)
            name eb (strip_shared prog log))
        policies)
    (Workloads.all_fixed
    @ [
        ("matmul", Workloads.matmul 3);
        ("config_pipeline", Workloads.config_pipeline ~workers:2 ~rounds:2);
        ("locked_hist", Workloads.locked_hist ~workers:2 ~rounds:3 ~cells:4);
        ( "arrays",
          {|
          shared int h[4];
          shared int t[4];
          shared int n = 1;
          func store() { h[1] = 5; }
          func load() { var x = t[2]; print(x); }
          func bump() { n = n + 1; }
          func main() { store(); load(); bump(); }
          |} );
      ]);
  Alcotest.(check bool) "uncovered reads were replayed" true (!n > 10)

let suite =
  ( "replay oracle",
    [
      Alcotest.test_case "vm = ast on every example" `Quick test_examples;
      random "vm = ast on random sequential programs" (fun seed ->
          Gen.sequential seed);
      random "vm = ast on random parallel programs" (fun seed ->
          Gen.parallel ~protect:`Sometimes seed);
      Alcotest.test_case "vm = ast on racy logs" `Quick test_racy_logs;
      Alcotest.test_case "vm = ast on uncovered shared reads" `Quick
        test_uncovered_shared;
    ] )
