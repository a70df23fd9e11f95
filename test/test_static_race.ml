(* Static potential-race detection (§7) and its relationship to the
   dynamic detector: static flags ⊇ dynamic findings. *)

open Analysis

let reports src = Static_race.analyze (Util.compile src)

let race_vars src =
  List.map (fun r -> r.Static_race.pr_var.Lang.Prog.vname) (reports src)
  |> List.sort_uniq compare

let test_racy_bank_flagged () =
  Alcotest.(check (list string)) "balance flagged" [ "balance" ]
    (race_vars Workloads.racy_bank);
  let ww =
    List.exists (fun r -> r.Static_race.pr_write_write) (reports Workloads.racy_bank)
  in
  Alcotest.(check bool) "write/write present" true ww

let test_fixed_bank_mutex_discharges_writes () =
  (* the two withdraw instances hold the mutex: no write/write race
     remains. main's final read of balance sits after both joins, which
     the statement-level MHP analysis now proves, so the whole program
     is race-free *)
  Alcotest.(check (list string)) "fixed bank race-free" []
    (race_vars Workloads.fixed_bank)

let test_sv_race_flagged () =
  Alcotest.(check (list string)) "SV flagged" [ "SV" ] (race_vars Workloads.sv_race)

let test_counter_policy () =
  let ww src =
    List.exists (fun r -> r.Static_race.pr_write_write) (reports src)
  in
  Alcotest.(check bool) "racy counter has write/write" true
    (ww (Workloads.counter ~workers:3 ~incs:2 ~mutex:false));
  Alcotest.(check bool) "locked counter has none" false
    (ww (Workloads.counter ~workers:3 ~incs:2 ~mutex:true))

let test_self_concurrency () =
  (* one worker spawned twice races with itself *)
  let src =
    {|
    shared int g = 0;
    func w() { g = g + 1; }
    func main() {
      var a = spawn w();
      var b = spawn w();
      join(a); join(b);
    }
    |}
  in
  Alcotest.(check (list string)) "self race" [ "g" ] (race_vars src);
  (* spawned once and main never touching g: nothing to flag *)
  let single =
    {|
    shared int g = 0;
    func w() { g = g + 1; }
    func main() { var a = spawn w(); join(a); }
    |}
  in
  Alcotest.(check (list string)) "single spawn clean" [] (race_vars single)

let test_spawn_in_loop_is_many () =
  let src =
    {|
    shared int g = 0;
    func w() { g = g + 1; }
    func main() {
      var i = 0;
      while (i < 3) {
        spawn w();
        i = i + 1;
      }
    }
    |}
  in
  Alcotest.(check (list string)) "loop spawn flagged" [ "g" ] (race_vars src)

let test_main_vs_worker () =
  let src =
    {|
    shared int g = 0;
    func w() { g = 1; }
    func main() {
      spawn w();
      print(g);
    }
    |}
  in
  (* read in main vs write in w, unordered (no join) *)
  Alcotest.(check (list string)) "main races with worker" [ "g" ] (race_vars src)

let test_lockset_must_hold () =
  (* a conditional release breaks must-hold *)
  let src =
    {|
    shared int g = 0;
    sem m = 1;
    func w(c) {
      P(m);
      if (c > 0) {
        V(m);
      }
      g = g + 1;   // lock NOT must-held here
      if (c <= 0) {
        V(m);
      }
    }
    func main() {
      var a = spawn w(1);
      var b = spawn w(0);
      join(a); join(b);
    }
    |}
  in
  Alcotest.(check (list string)) "conditional unlock flagged" [ "g" ] (race_vars src)

let test_held_at () =
  let p =
    Util.compile
      {|
      shared int g = 0;
      sem m = 1;
      func main() {
        P(m);
        g = 1;
        V(m);
        g = 2;
      }
      |}
  in
  let f = p.funcs.(p.main_fid) in
  let cfg = Cfg.build p f in
  (* g = 1 holds m; g = 2 does not *)
  let sid_of label =
    let s = ref (-1) in
    Array.iter
      (fun (st : Lang.Prog.stmt) ->
        if Lang.Prog.stmt_label st = label then s := st.sid)
      p.stmts;
    !s
  in
  Alcotest.(check (list int)) "held inside" [ 0 ]
    (Static_race.held_at p cfg cfg.Cfg.node_of_sid.(sid_of "g = 1"));
  Alcotest.(check (list int)) "released after" []
    (Static_race.held_at p cfg cfg.Cfg.node_of_sid.(sid_of "g = 2"))

(* Soundness w.r.t. the dynamic detector: any variable the dynamic
   detector catches in some schedule is statically flagged. *)
let static_covers_dynamic =
  Util.qtest ~count:30 "static potential races cover dynamic races"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1_000))
    (fun (seed, sseed) ->
      let src = Gen.parallel ~protect:`Sometimes seed in
      let prog = Util.compile src in
      let obs = Oracle.Pardyn_oracle.observer prog in
      let m =
        Runtime.Machine.create
          ~sched:(Runtime.Sched.Random_seed sseed)
          ~hooks:(Oracle.Pardyn_oracle.factory obs) prog
      in
      ignore (Runtime.Machine.run m);
      let dynamic =
        (Ppd.Race.detect (Oracle.Pardyn_oracle.finish obs)).Ppd.Race.races
        |> List.map (fun r -> r.Ppd.Race.rc_var.Lang.Prog.vid)
        |> List.sort_uniq compare
      in
      let static =
        Static_race.analyze prog
        |> List.map (fun r -> r.Static_race.pr_var.Lang.Prog.vid)
        |> List.sort_uniq compare
      in
      List.for_all (fun v -> List.mem v static) dynamic)

let test_report_rendering () =
  let p = Util.compile Workloads.racy_bank in
  let s = Format.asprintf "%a" (Static_race.pp_report p) (Static_race.analyze p) in
  Alcotest.(check bool) "names the variable" true (Util.contains ~sub:"balance" s);
  Alcotest.(check bool) "names the function" true (Util.contains ~sub:"withdraw" s);
  let clean =
    Util.compile
      "shared int g = 0;\nfunc w() { g = g + 1; }\nfunc main() { var a = spawn w(); join(a); }"
  in
  let s2 =
    Format.asprintf "%a" (Static_race.pp_report clean) (Static_race.analyze clean)
  in
  Alcotest.(check bool) "clean message" true (Util.contains ~sub:"no potential" s2)

let test_interprocedural_locksets () =
  (* a lock acquired in a helper protects the caller's accesses: the
     must-acquire summary keeps it held across the call return, and the
     may-release summary is what clobbers — not the mere presence of a
     call *)
  let src which =
    Printf.sprintf
      {|
    shared int g = 0;
    sem m = 1;
    func lock() { P(m); }
    func unlock() { V(m); }
    func worker() {
      %s
      g = g + 1;
      %s
    }
    func main() {
      var a = spawn worker();
      var b = spawn worker();
      join(a);
      join(b);
    }
    |}
      (fst which) (snd which)
  in
  Alcotest.(check int) "helper-wrapped lock discharges the race" 0
    (List.length (reports (src ("lock();", "unlock();"))));
  Alcotest.(check bool) "without the lock helpers the race stays" true
    (reports (src ("", "")) <> []);
  (* a helper that conditionally releases must clobber (may-release) *)
  let leaky =
    {|
    shared int g = 0;
    sem m = 1;
    func maybe_unlock(x) {
      if (x > 0) {
        V(m);
      }
    }
    func worker(x) {
      P(m);
      maybe_unlock(x);
      g = g + 1;
      V(m);
    }
    func main() {
      var a = spawn worker(0);
      var b = spawn worker(1);
      join(a);
      join(b);
    }
    |}
  in
  Alcotest.(check bool) "may-release helper breaks must-held" true
    (reports leaky <> [])

let test_summaries_recursion_conservative () =
  (* a recursive lock helper promises nothing: the access is not
     considered protected *)
  let src =
    {|
    shared int g = 0;
    sem m = 1;
    func lockr(n) {
      if (n > 0) {
        var x = lockr(n - 1);
      }
      P(m);
      return 0;
    }
    func worker() {
      var x = lockr(0);
      g = g + 1;
      V(m);
    }
    func main() {
      var a = spawn worker();
      var b = spawn worker();
      join(a);
      join(b);
    }
    |}
  in
  Alcotest.(check bool) "recursive helper keeps the race flagged" true
    (reports src <> [])

let suite =
  ( "static-race",
    [
      Alcotest.test_case "interprocedural locksets" `Quick
        test_interprocedural_locksets;
      Alcotest.test_case "recursive summaries conservative" `Quick
        test_summaries_recursion_conservative;
      Alcotest.test_case "racy bank flagged" `Quick test_racy_bank_flagged;
      Alcotest.test_case "fixed bank: mutex discharges writes" `Quick
        test_fixed_bank_mutex_discharges_writes;
      Alcotest.test_case "sv race flagged" `Quick test_sv_race_flagged;
      Alcotest.test_case "counter policy" `Quick test_counter_policy;
      Alcotest.test_case "self concurrency" `Quick test_self_concurrency;
      Alcotest.test_case "spawn in loop" `Quick test_spawn_in_loop_is_many;
      Alcotest.test_case "main vs worker" `Quick test_main_vs_worker;
      Alcotest.test_case "must-hold locksets" `Quick test_lockset_must_hold;
      Alcotest.test_case "held_at" `Quick test_held_at;
      static_covers_dynamic;
      Alcotest.test_case "report rendering" `Quick test_report_rendering;
    ] )
