(* Race detection: Definitions 6.1–6.4, with the chain scan checked
   against the all-pairs oracle (§7). *)

let detect ?sched src =
  let prog = Util.compile src in
  let obs = Oracle.Pardyn_oracle.observer prog in
  let m =
    Runtime.Machine.create ?sched ~hooks:(Oracle.Pardyn_oracle.factory obs) prog
  in
  ignore (Runtime.Machine.run m);
  let g = Oracle.Pardyn_oracle.finish obs in
  (g, Oracle.Race_oracle.all_pairs g, Ppd.Race.detect g)

(* Named programs: the chain scan must report the oracle's races. *)
let checked src =
  let g, oracle, scan = detect src in
  Alcotest.(check bool) "detect = all_pairs" true
    (oracle.Ppd.Race.races = scan.Ppd.Race.races);
  (g, scan)

let var_names races =
  List.map (fun r -> r.Ppd.Race.rc_var.Lang.Prog.vname) races
  |> List.sort_uniq compare

let test_racy_bank () =
  let g, scan = checked Workloads.racy_bank in
  Alcotest.(check bool) "races found" true (scan.Ppd.Race.races <> []);
  Alcotest.(check (list string)) "on balance" [ "balance" ]
    (var_names scan.Ppd.Race.races);
  Alcotest.(check bool) "both conflict kinds present" true
    (List.exists (fun r -> r.Ppd.Race.rc_kind = Ppd.Race.Write_write) scan.races
    && List.exists (fun r -> r.Ppd.Race.rc_kind = Ppd.Race.Read_write) scan.races);
  Alcotest.(check bool) "not race free" false (Ppd.Race.is_race_free g)

let test_fixed_bank () =
  let g, scan = checked Workloads.fixed_bank in
  Alcotest.(check (list string)) "no races" [] (var_names scan.Ppd.Race.races);
  Alcotest.(check bool) "race free" true (Ppd.Race.is_race_free g)

let test_sv_race_section_6_3 () =
  (* two writers and one reader, all concurrent: W/W between writers,
     R/W between the reader and each writer *)
  let _g, scan = checked Workloads.sv_race in
  let ww =
    List.filter (fun r -> r.Ppd.Race.rc_kind = Ppd.Race.Write_write) scan.races
  in
  let rw =
    List.filter (fun r -> r.Ppd.Race.rc_kind = Ppd.Race.Read_write) scan.races
  in
  Alcotest.(check int) "one W/W race" 1 (List.length ww);
  Alcotest.(check int) "two R/W races" 2 (List.length rw)

let test_join_removes_race () =
  (* joining the writer before reading orders the accesses *)
  let src =
    {|
    shared int g = 0;
    func w() { g = 1; }
    func main() {
      var p = spawn w();
      join(p);
      print(g);
    }
    |}
  in
  let _g, scan = checked src in
  Alcotest.(check (list string)) "no race through join" [] (var_names scan.races)

let test_message_removes_race () =
  (* the send->recv edge orders the write before the read *)
  let src =
    {|
    shared int g = 0;
    chan c[0];
    func w() { g = 5; send(c, 1); }
    func main() {
      var p = spawn w();
      var x = 0;
      recv(c, x);
      print(g);
      join(p);
    }
    |}
  in
  let _g, scan = checked src in
  Alcotest.(check (list string)) "no race through message" []
    (var_names scan.races)

let test_read_read_not_a_race () =
  let src =
    {|
    shared int g = 7;
    func r() { var x = g; return x; }
    func main() {
      var p1 = spawn r();
      var p2 = spawn r();
      join(p1); join(p2);
    }
    |}
  in
  let _g, scan = checked src in
  Alcotest.(check (list string)) "read/read is fine" [] (var_names scan.races)

let test_counter_scaling_agreement () =
  List.iter
    (fun workers ->
      let _g, oracle, scan =
        detect (Workloads.counter ~workers ~incs:3 ~mutex:false)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d workers agree" workers)
        true
        (oracle.Ppd.Race.races = scan.Ppd.Race.races);
      Alcotest.(check bool)
        (Printf.sprintf "%d workers race" workers)
        true (scan.Ppd.Race.races <> []);
      Alcotest.(check bool) "detect tests no more pairs" true
        (scan.Ppd.Race.pairs_examined <= oracle.Ppd.Race.pairs_examined))
    [ 2; 3; 4; 5 ]

let test_protected_counter_scale () =
  (* ~2.4k internal edges, all ordered through the mutex: the scan's
     binary searches make a small fraction of the oracle's tests *)
  let _g, oracle, scan =
    detect (Workloads.counter ~workers:8 ~incs:150 ~mutex:true)
  in
  Alcotest.(check bool) "detect = all_pairs" true
    (oracle.Ppd.Race.races = scan.Ppd.Race.races);
  Alcotest.(check (list string)) "race-free" [] (var_names scan.Ppd.Race.races);
  Alcotest.(check bool)
    (Printf.sprintf "%d tests < 1/10 of %d" scan.Ppd.Race.pairs_examined
       oracle.Ppd.Race.pairs_examined)
    true
    (scan.Ppd.Race.pairs_examined * 10 < oracle.Ppd.Race.pairs_examined)

let sched_of random s =
  if random then Runtime.Sched.Random_seed s
  else Runtime.Sched.Round_robin (1 + (s mod 8))

let detect_matches_oracle =
  Util.qtest ~count:200 "detect = oracle on random programs"
    ~print:(fun (seed, protect, random, s) ->
      Util.show_instance ~seed ~protect ~sched:(sched_of random s)
        (Gen.parallel ~protect seed))
    QCheck2.Gen.(
      quad (int_range 0 100_000)
        (oneofl [ `Always; `Sometimes; `Never ])
        bool (int_range 0 1_000))
    (fun (seed, protect, random, s) ->
      let _g, oracle, scan =
        detect ~sched:(sched_of random s) (Gen.parallel ~protect seed)
      in
      oracle.Ppd.Race.races = scan.Ppd.Race.races)

let protected_is_race_free =
  Util.qtest ~count:30 "fully protected programs are race-free"
    ~print:(fun (seed, s) ->
      Util.show_instance ~seed ~protect:`Always
        ~sched:(Runtime.Sched.Random_seed s)
        (Gen.parallel ~protect:`Always seed))
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let g, _, _ =
        detect
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Always seed)
      in
      Ppd.Race.is_race_free g)

(* The debugging phase answers from the log: structure from its sync
   records, access sets from replaying its e-block intervals. On any
   execution whose replays all complete, that answer is the one the
   runtime observer builds live; a racy execution's replay may diverge,
   but the answer stays exact up to the first race, so a race the
   observer sees is still reported, and an interval that diverged
   always comes with a reported race. An order-tier log is
   reconstructed first, which a racy execution may refuse (PPD061).
   [None] when the two agree, otherwise both answers. *)
let log_race_agrees ?policy ~sched ~order src =
  let prog = Util.compile src in
  let eb = Analysis.Eblock.analyze ?policy prog in
  let tier =
    if order then
      Trace.Log.order_tier ~sched ~max_steps:1_000_000
    else Trace.Log.T_content
  in
  let _, log, observed =
    Oracle.Pardyn_oracle.run_logged ~sched ~max_steps:1_000_000 ~tier eb
  in
  let oracle = Ppd.Race.detect observed in
  let report pd (st : Ppd.Race.stats) =
    Format.asprintf "%a" (Ppd.Race.pp_report pd) st.Ppd.Race.races
  in
  match Ppd.Controller.race (Ppd.Controller.start eb log) with
  | exception Ppd.Reconstruct.Divergence _ ->
    if order then None else Some "a content log refused reconstruction"
  | pd, got ->
    let ctl = Ppd.Controller.start eb log in
    let keys =
      List.concat_map
        (fun pid ->
          Array.to_list (Ppd.Controller.intervals ctl ~pid)
          |> List.map (fun iv -> (pid, iv.Trace.Log.iv_id)))
        (List.init log.Trace.Log.nprocs Fun.id)
    in
    let diverged =
      match Ppd.Controller.build_intervals_par ctl keys with
      | () -> false
      | exception Ppd.Emulator.Replay_mismatch _ -> true
    in
    if
      ((not diverged) || oracle.Ppd.Race.races <> [])
      && ((not diverged) || got.Ppd.Race.races <> [])
      && (diverged || got = oracle)
      && (oracle.Ppd.Race.races = [] || got.Ppd.Race.races <> [])
    then None
    else
      Some
        (Printf.sprintf
           "a replay diverged: %b\nlog-built (%d pairs examined):\n%s\n\
            observer-built (%d pairs examined):\n%s"
           diverged got.Ppd.Race.pairs_examined (report pd got)
           oracle.Ppd.Race.pairs_examined (report observed oracle))

let from_log_matches_observer =
  Util.qtest ~count:300 "log-built race report = observer-built"
    ~print:(fun (seed, protect, (random, s), order) ->
      Util.show_instance ~seed ~protect ~sched:(sched_of random s)
        ~extra:[ ("tier", if order then "order" else "content") ]
        (Gen.parallel ~protect seed))
    QCheck2.Gen.(
      quad (int_range 0 100_000)
        (oneofl [ `Always; `Sometimes; `Never ])
        (pair bool (int_range 0 1_000))
        bool)
    (fun (seed, protect, (random, s), order) ->
      match
        log_race_agrees ~sched:(sched_of random s) ~order
          (Gen.parallel ~protect seed)
      with
      | None -> true
      | Some sides -> QCheck2.Test.fail_report sides)

(* Named programs, including messages whose payloads and targets are
   shared variables: a sync event's own reads belong to its incoming
   edge and its writes to its outgoing edge, on the log path as in the
   observer. *)
let test_from_log_named () =
  let sync_accesses =
    {|
    shared int g = 4;
    shared int h = 0;
    chan c[0];
    func w() { send(c, g); recv(c, h); }
    func main() {
      var p = spawn w();
      var x = 0;
      recv(c, x);
      g = x + 1;
      send(c, g);
      join(p);
      print(h);
    }
    |}
  in
  (* every loop an e-block: a replay skips the nested loop blocks and
     marks each with a stand-in carrying its writes, which must not
     count again at the loop's exit *)
  let loops =
    { Analysis.Eblock.leaf_inline_max_stmts = 0; loop_block_min_body = 1 }
  in
  List.iter
    (fun (name, src) ->
      List.iter
        (fun sched ->
          List.iter
            (fun (order, policy) ->
              match log_race_agrees ?policy ~sched ~order src with
              | None -> ()
              | Some sides ->
                Alcotest.failf "%s %s %s%s:\n%s" name
                  (Runtime.Sched.string_of_policy sched)
                  (if order then "order" else "content")
                  (if policy = None then "" else " loop-blocks")
                  sides)
            [
              (false, None); (true, None); (false, Some loops); (true, Some loops);
            ])
        [
          Runtime.Sched.Round_robin 1;
          Runtime.Sched.Round_robin 3;
          Runtime.Sched.Random_seed 3;
          Runtime.Sched.Random_seed 11;
        ])
    [
      ("sync accesses", sync_accesses);
      ("fig61", Workloads.fig61);
      ("rpc", Workloads.rpc);
      ("racy bank", Workloads.racy_bank);
      ("fixed bank", Workloads.fixed_bank);
      ("sv race", Workloads.sv_race);
      ("producer/consumer", Workloads.producer_consumer ~items:6 ~cap:2);
      ("token ring", Workloads.token_ring ~procs:3 ~rounds:2);
      ("locked hist", Workloads.locked_hist ~workers:3 ~rounds:4 ~cells:4);
      ("counter", Workloads.counter ~workers:3 ~incs:3 ~mutex:true);
      ("racy counter", Workloads.counter ~workers:2 ~incs:3 ~mutex:false);
    ]

let suite =
  ( "race",
    [
      Alcotest.test_case "racy bank" `Quick test_racy_bank;
      Alcotest.test_case "fixed bank" `Quick test_fixed_bank;
      Alcotest.test_case "§6.3 scenario" `Quick test_sv_race_section_6_3;
      Alcotest.test_case "join orders" `Quick test_join_removes_race;
      Alcotest.test_case "message orders" `Quick test_message_removes_race;
      Alcotest.test_case "read/read ok" `Quick test_read_read_not_a_race;
      Alcotest.test_case "scaling agreement" `Quick test_counter_scaling_agreement;
      Alcotest.test_case "protected counter scale" `Quick
        test_protected_counter_scale;
      detect_matches_oracle;
      protected_is_race_free;
      Alcotest.test_case "log-built = observer on named programs" `Quick
        test_from_log_named;
      from_log_matches_observer;
    ] )
