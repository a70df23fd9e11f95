(* Race detection: Definitions 6.1–6.4, with the chain scan checked
   against the all-pairs oracle (§7). *)

let detect ?sched src =
  let prog = Util.compile src in
  let obs = Ppd.Pardyn.observer prog in
  let m = Runtime.Machine.create ?sched ~hooks:(Ppd.Pardyn.factory obs) prog in
  ignore (Runtime.Machine.run m);
  let g = Ppd.Pardyn.finish obs in
  (g, Ppd.Race.all_pairs g, Ppd.Race.detect g)

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

let detect_matches_oracle =
  Util.qtest ~count:200 "detect = oracle on random programs"
    QCheck2.Gen.(
      quad (int_range 0 100_000)
        (oneofl [ `Always; `Sometimes; `Never ])
        bool (int_range 0 1_000))
    (fun (seed, protect, random, s) ->
      let sched =
        if random then Runtime.Sched.Random_seed s
        else Runtime.Sched.Round_robin (1 + (s mod 8))
      in
      let _g, oracle, scan = detect ~sched (Gen.parallel ~protect seed) in
      oracle.Ppd.Race.races = scan.Ppd.Race.races)

let protected_is_race_free =
  Util.qtest ~count:30 "fully protected programs are race-free"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let g, _, _ =
        detect
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Always seed)
      in
      Ppd.Race.is_race_free g)

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
    ] )
