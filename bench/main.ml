(* PPD benchmark harness: regenerates every table and figure of
   EXPERIMENTS.md (the paper's quantitative claims plus the ablations
   its §5.4/§7 discussions call for).

   Usage:  dune exec bench/main.exe            -- everything
           dune exec bench/main.exe -- t1 t5   -- selected experiments

   Timings come from Bechamel (one Test.make per measured variant,
   grouped per table); counts (log entries, bytes, pairs, replays) are
   computed directly. *)

open Bechamel

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing.                                                   *)
(* ------------------------------------------------------------------ *)

let measure_tests ?(quota = 0.4) (tests : Test.t) : (string * float) list =
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second quota) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let res = Analyze.all ols instance raw in
  Hashtbl.fold
    (fun name ols acc ->
      let est =
        match Analyze.OLS.estimates ols with
        | Some (e :: _) -> e
        | Some [] | None -> nan
      in
      (name, est) :: acc)
    res []

let time_of results name =
  match List.assoc_opt name results with Some t -> t | None -> nan

let fmt_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.1f µs" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let pct base v =
  if Float.is_nan base || base = 0. then "n/a"
  else Printf.sprintf "%+.1f%%" ((v -. base) /. base *. 100.)

let header title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Shared run helpers.                                                  *)
(* ------------------------------------------------------------------ *)

let sched = Runtime.Sched.Round_robin 4

let compile = Lang.Compile.compile

let run_bare prog =
  let m = Runtime.Machine.create ~sched ~max_steps:5_000_000 prog in
  ignore (Runtime.Machine.run m)

let run_logged eb =
  let logger = Trace.Logger.create eb in
  let m =
    Runtime.Machine.create ~sched ~max_steps:5_000_000
      ~hooks:(Trace.Logger.factory logger) eb.Analysis.Eblock.prog
  in
  ignore (Runtime.Machine.run m)

let run_logged_race eb =
  let logger = Trace.Logger.create eb in
  let obs = Ppd.Pardyn.observer eb.Analysis.Eblock.prog in
  let hooks =
    Runtime.Hooks.both (Trace.Logger.factory logger) (Ppd.Pardyn.factory obs)
  in
  let m =
    Runtime.Machine.create ~sched ~max_steps:5_000_000 ~hooks
      eb.Analysis.Eblock.prog
  in
  ignore (Runtime.Machine.run m)

let logged_artifacts src =
  let prog = compile src in
  let eb = Analysis.Eblock.analyze prog in
  let logger = Trace.Logger.create eb in
  let ft = Trace.Full_trace.create () in
  let hooks =
    Runtime.Hooks.both (Trace.Logger.factory logger) (Trace.Full_trace.factory ft)
  in
  let m =
    Runtime.Machine.create ~sched ~max_steps:5_000_000 ~hooks prog
  in
  let halt = Runtime.Machine.run m in
  (eb, halt, Trace.Logger.finish logger, Trace.Full_trace.finish ft, m)

let run_bare_e engine prog =
  let m = Runtime.Machine.create ~engine ~sched ~max_steps:5_000_000 prog in
  ignore (Runtime.Machine.run m)

(* Every event materialized but nothing consumes it: a no-op observer
   that declares it reads local statement events, so the VM builds each
   one. Isolates the cost of producing the full event stream, which the
   logger alone no longer pays. *)
let every_event _port =
  { Runtime.Hooks.on_event = (fun ~pid:_ ~seq:_ _ -> ()); locals = true }

let run_instr_vm prog =
  let m =
    Runtime.Machine.create ~sched ~max_steps:5_000_000 ~hooks:every_event prog
  in
  ignore (Runtime.Machine.run m)

let run_logged_e engine eb =
  let logger = Trace.Logger.create eb in
  let m =
    Runtime.Machine.create ~engine ~sched ~max_steps:5_000_000
      ~hooks:(Trace.Logger.factory logger) eb.Analysis.Eblock.prog
  in
  ignore (Runtime.Machine.run m)

(* The workload suite used by T1 and T2. *)
let workloads =
  [
    ("matmul-12", Workloads.matmul 12);
    ("counter-4x50", Workloads.counter ~workers:4 ~incs:50 ~mutex:true);
    ("prodcons-300", Workloads.producer_consumer ~items:300 ~cap:8);
    ("ring-6x12", Workloads.token_ring ~procs:6 ~rounds:12);
    ("branchy-150", Workloads.branchy ~rounds:150);
    ("fib-15", Workloads.fib 15);
  ]

(* ------------------------------------------------------------------ *)
(* T1: execution-phase overhead of logging (§7: "less than 15%").       *)
(* ------------------------------------------------------------------ *)

(* Engine comparison rows, shared by the console table and `--json t1`
   (consumed by scripts/perf_gate.py check_t1_vm). Steps/run is
   identical across engines — the differential oracle proves it — so
   steps/sec ratios reduce to wall-time ratios. *)
type t1_row = {
  t1_name : string;
  t1_steps : int;
  t1_interp_bare_ns : float;
  t1_interp_logged_ns : float;
  t1_vm_bare_ns : float;
  t1_vm_instr_ns : float;
  t1_vm_logged_ns : float;
}

let t1_rows () =
  let tests =
    List.concat_map
      (fun (name, src) ->
        let prog = compile src in
        let eb = Analysis.Eblock.analyze prog in
        [
          Test.make ~name:(name ^ "/interp-bare")
            (Staged.stage (fun () ->
                 run_bare_e Runtime.Machine.Interp_engine prog));
          Test.make ~name:(name ^ "/interp-logged")
            (Staged.stage (fun () ->
                 run_logged_e Runtime.Machine.Interp_engine eb));
          Test.make ~name:(name ^ "/vm-bare")
            (Staged.stage (fun () -> run_bare_e Runtime.Machine.Vm_engine prog));
          Test.make ~name:(name ^ "/vm-instr")
            (Staged.stage (fun () -> run_instr_vm prog));
          Test.make ~name:(name ^ "/vm-logged")
            (Staged.stage (fun () ->
                 run_logged_e Runtime.Machine.Vm_engine eb));
        ])
      workloads
  in
  let results = measure_tests ~quota:0.6 (Test.make_grouped ~name:"t1e" tests) in
  List.map
    (fun (name, src) ->
      let prog = compile src in
      let m = Runtime.Machine.create ~sched ~max_steps:5_000_000 prog in
      ignore (Runtime.Machine.run m);
      let t k = time_of results ("t1e/" ^ name ^ "/" ^ k) in
      {
        t1_name = name;
        t1_steps = Runtime.Machine.nsteps m;
        t1_interp_bare_ns = t "interp-bare";
        t1_interp_logged_ns = t "interp-logged";
        t1_vm_bare_ns = t "vm-bare";
        t1_vm_instr_ns = t "vm-instr";
        t1_vm_logged_ns = t "vm-logged";
      })
    workloads

let t1 () =
  header "T1  Execution-phase overhead of incremental tracing (paper §7: <15%)";
  let speedup b v =
    if Float.is_nan b || Float.is_nan v || v = 0. then "n/a"
    else Printf.sprintf "%.1fx" (b /. v)
  in
  let rows = t1_rows () in
  row "%-14s %8s %11s %11s %8s %11s %11s %9s\n" "workload" "steps" "interp"
    "vm" "speedup" "vm+events" "vm+log" "log ovh";
  List.iter
    (fun r ->
      row "%-14s %8d %11s %11s %8s %11s %11s %9s\n" r.t1_name r.t1_steps
        (fmt_ns r.t1_interp_bare_ns) (fmt_ns r.t1_vm_bare_ns)
        (speedup r.t1_interp_bare_ns r.t1_vm_bare_ns)
        (fmt_ns r.t1_vm_instr_ns) (fmt_ns r.t1_vm_logged_ns)
        (pct r.t1_vm_bare_ns r.t1_vm_logged_ns))
    rows;
  print_endline
    "(vm = default bytecode engine, interp = AST-walking oracle; vm+events\n\
    \      builds every event for a no-op observer; log ovh compares vm+log\n\
    \      against the bare vm: the cost the paper bounds at 15%)";
  let tests =
    List.concat_map
      (fun (name, src) ->
        let prog = compile src in
        let eb = Analysis.Eblock.analyze prog in
        let eb54 =
          Analysis.Eblock.analyze
            ~policy:{ Analysis.Eblock.leaf_inline_max_stmts = 4; loop_block_min_body = 0 }
            prog
        in
        [
          Test.make ~name:(name ^ "/bare") (Staged.stage (fun () -> run_bare prog));
          Test.make ~name:(name ^ "/logged") (Staged.stage (fun () -> run_logged eb));
          Test.make ~name:(name ^ "/inline4")
            (Staged.stage (fun () -> run_logged eb54));
          Test.make ~name:(name ^ "/logged+race")
            (Staged.stage (fun () -> run_logged_race eb));
        ])
      workloads
  in
  let results = measure_tests ~quota:0.8 (Test.make_grouped ~name:"t1" tests) in
  row "%-14s %11s %11s %9s %11s %9s %13s %9s\n" "workload" "bare" "logged"
    "ovh" "inline<=4" "ovh" "logged+race" "ovh";
  List.iter
    (fun (name, _) ->
      let b = time_of results ("t1/" ^ name ^ "/bare") in
      let l = time_of results ("t1/" ^ name ^ "/logged") in
      let i = time_of results ("t1/" ^ name ^ "/inline4") in
      let r = time_of results ("t1/" ^ name ^ "/logged+race") in
      row "%-14s %11s %11s %9s %11s %9s %13s %9s\n" name (fmt_ns b) (fmt_ns l)
        (pct b l) (fmt_ns i) (pct b i) (fmt_ns r) (pct b r))
    workloads;
  print_endline
    "(paper's informal measurement: tracing added <15% to execution time;\n      inline<=4 applies the paper's own \xc2\xa75.4 fix: no e-blocks for small leaves)"

(* ------------------------------------------------------------------ *)
(* T2: log volume vs trace-everything (§2/§3.1).                        *)
(* ------------------------------------------------------------------ *)

(* Both sides are sized the same way, as marshalled OCaml values, so
   the ratio compares what is recorded, not two encodings. *)
let marshalled_bytes v = String.length (Marshal.to_string v [])

let t2 () =
  header "T2  Log volume: incremental tracing vs trace-everything baseline";
  row "%-14s %10s %12s %12s %12s %8s\n" "workload" "log entrs" "log bytes"
    "trace evts" "trace bytes" "ratio";
  List.iter
    (fun (name, src) ->
      let _eb, _halt, log, tr, _m = logged_artifacts src in
      let le = Trace.Log.entry_count log in
      let lb = marshalled_bytes log in
      let te = Trace.Full_trace.nevents tr in
      let tb = marshalled_bytes tr in
      row "%-14s %10d %12d %12d %12d %7.1fx\n" name le lb te tb
        (float_of_int tb /. float_of_int (max 1 lb)))
    workloads

(* ------------------------------------------------------------------ *)
(* T3: e-block granularity (§5.4): execution cost vs debugging cost.    *)
(* ------------------------------------------------------------------ *)

(* Many small leaf helpers called from loops; the error at the end makes
   a fixed flowback query possible. *)
let granularity_src =
  {|
func inc(x) { return x + 1; }
func double(x) {
  var t = x;
  t = t + x;
  return t;
}
func dec(x) {
  var t = x;
  var d = 1;
  t = t - d;
  var chk = t + d;
  assert(chk == x);
  return t;
}
func main() {
  var v = 1;
  var i = 0;
  for (i = 0; i < 40; i = i + 1) {
    var a = inc(v);
    var b = double(a);
    v = dec(b);
    if (v > 1000) {
      v = v - 1000;
    }
  }
  assert(v == 0);
}
|}

let t3 () =
  header "T3  E-block granularity (§5.4): leaf inlining threshold sweep";
  row "%-10s %10s %12s %16s %16s\n" "threshold" "e-blocks" "log entries"
    "steps (shallow)" "steps (slice)";
  List.iter
    (fun threshold ->
      let prog = compile granularity_src in
      let policy = { Analysis.Eblock.leaf_inline_max_stmts = threshold; loop_block_min_body = 0 } in
      let eb = Analysis.Eblock.analyze ~policy prog in
      let logger = Trace.Logger.create eb in
      let m =
        Runtime.Machine.create ~sched ~hooks:(Trace.Logger.factory logger) prog
      in
      ignore (Runtime.Machine.run m);
      let log = Trace.Logger.finish logger in
      let nblocks =
        Array.fold_left (fun a b -> if b then a + 1 else a) 0 eb.is_eblock
      in
      (* two debugging-phase queries: a shallow one (immediate
         dependences of the error — §3.2.3's first screen) and the full
         slice *)
      let ctl = Ppd.Controller.start eb log in
      (match Ppd.Controller.last_event_node ctl ~pid:0 with
      | Some root -> ignore (Ppd.Flowback.dependences ctl root)
      | None -> ());
      let shallow = Ppd.Controller.stats ctl in
      let ctl2 = Ppd.Controller.start eb log in
      (match Ppd.Controller.last_event_node ctl2 ~pid:0 with
      | Some root -> ignore (Ppd.Flowback.backward_slice ctl2 root)
      | None -> ());
      let full = Ppd.Controller.stats ctl2 in
      row "%-10d %10d %12d %16d %16d\n" threshold nblocks
        (Trace.Log.entry_count log) shallow.Ppd.Controller.replay_steps
        full.Ppd.Controller.replay_steps)
    [ 0; 1; 3; 5; 100 ];
  print_endline
    "(larger blocks: fewer log entries during execution, but the first\n      debugging-phase question costs more re-execution)";
  (* the same trade-off for loop e-blocks (§5.4's other knob): matmul's
     nested loops dominate main, so promoting them to blocks makes the
     first query cheap at the cost of per-loop logging *)
  print_endline "";
  row "%-18s %12s %16s %16s\n" "loop threshold" "log entries"
    "steps (shallow)" "steps (slice)";
  List.iter
    (fun threshold ->
      let prog = compile (Workloads.matmul 8) in
      let policy =
        { Analysis.Eblock.leaf_inline_max_stmts = 0;
          loop_block_min_body = threshold }
      in
      let eb = Analysis.Eblock.analyze ~policy prog in
      let logger = Trace.Logger.create eb in
      let m =
        Runtime.Machine.create ~sched ~hooks:(Trace.Logger.factory logger) prog
      in
      ignore (Runtime.Machine.run m);
      let log = Trace.Logger.finish logger in
      let ctl = Ppd.Controller.start eb log in
      (match Ppd.Controller.last_event_node ctl ~pid:0 with
      | Some root -> ignore (Ppd.Flowback.dependences ctl root)
      | None -> ());
      let shallow = Ppd.Controller.stats ctl in
      let ctl2 = Ppd.Controller.start eb log in
      (match Ppd.Controller.last_event_node ctl2 ~pid:0 with
      | Some root -> ignore (Ppd.Flowback.backward_slice ctl2 root)
      | None -> ());
      let full = Ppd.Controller.stats ctl2 in
      row "%-18s %12d %16d %16d\n"
        (if threshold = 0 then "off" else string_of_int threshold)
        (Trace.Log.entry_count log) shallow.Ppd.Controller.replay_steps
        full.Ppd.Controller.replay_steps)
    [ 0; 8; 4; 2 ];
  print_endline
    "(loop e-blocks let the debugger skip matmul's loop nests until asked)"

(* ------------------------------------------------------------------ *)
(* T4: bitmask vs list variable sets (§7).                              *)
(* ------------------------------------------------------------------ *)

(* A call chain with global traffic, scaled by function count. *)
let modref_src ~nfuncs ~nglobals =
  let b = Buffer.create 2048 in
  for g = 0 to nglobals - 1 do
    Buffer.add_string b (Printf.sprintf "shared int g%d = 0;\n" g)
  done;
  Buffer.add_string b "func f0(x) { g0 = g0 + x; return g0; }\n";
  for i = 1 to nfuncs - 1 do
    Buffer.add_string b
      (Printf.sprintf
         "func f%d(x) { g%d = g%d + x; var y = f%d(x + 1); var z = g%d; return y + z; }\n"
         i (i mod nglobals) (i mod nglobals) (i - 1)
         ((i * 7) mod nglobals))
  done;
  Buffer.add_string b
    (Printf.sprintf "func main() { var r = f%d(1); print(r); }\n" (nfuncs - 1));
  Buffer.contents b

let t4 () =
  header "T4  Variable-set representation (§7): bitmask vs sorted list";
  let sizes = [ (20, 10); (60, 30); (150, 75) ] in
  let tests =
    List.concat_map
      (fun (nfuncs, nglobals) ->
        let prog = compile (modref_src ~nfuncs ~nglobals) in
        let module B = Analysis.Interproc.Make (Analysis.Varset.Bits) in
        let module L = Analysis.Interproc.Make (Analysis.Varset.Lists) in
        [
          Test.make
            ~name:(Printf.sprintf "%d-funcs/bitmask" nfuncs)
            (Staged.stage (fun () -> ignore (B.compute prog)));
          Test.make
            ~name:(Printf.sprintf "%d-funcs/list" nfuncs)
            (Staged.stage (fun () -> ignore (L.compute prog)));
        ])
      sizes
  in
  let results = measure_tests (Test.make_grouped ~name:"t4" tests) in
  row "%-12s %12s %12s %10s\n" "program" "bitmask" "list" "speedup";
  List.iter
    (fun (nfuncs, _) ->
      let b = time_of results (Printf.sprintf "t4/%d-funcs/bitmask" nfuncs) in
      let l = time_of results (Printf.sprintf "t4/%d-funcs/list" nfuncs) in
      row "%-12s %12s %12s %9.1fx\n"
        (Printf.sprintf "%d funcs" nfuncs)
        (fmt_ns b) (fmt_ns l) (l /. b))
    sizes;
  print_endline
    "(the paper: \"bit-mask representations ... can have a large payoff\")"

(* ------------------------------------------------------------------ *)
(* T5: race detection (§7): the all-pairs oracle vs the chain scan.     *)
(* ------------------------------------------------------------------ *)

let t5 () =
  header "T5  Conflicting-edge detection (§7): all-pairs oracle vs chain scan";
  row "%-22s %8s %12s %12s %12s %12s %12s\n" "workload" "edges" "oracle tests"
    "oracle time" "scan tests" "scan time" "static time";
  List.iter
    (fun (workers, incs, mutex) ->
      let src = Workloads.counter ~workers ~incs ~mutex in
      let prog = compile src in
      let obs = Ppd.Pardyn.observer prog in
      let m =
        Runtime.Machine.create ~sched ~hooks:(Ppd.Pardyn.factory obs) prog
      in
      ignore (Runtime.Machine.run m);
      let g = Ppd.Pardyn.finish obs in
      let oracle = Ppd.Race.all_pairs g in
      let scan = Ppd.Race.detect g in
      assert (oracle.Ppd.Race.races = scan.Ppd.Race.races);
      let tests =
        Test.make_grouped ~name:"t5"
          [
            Test.make ~name:"oracle"
              (Staged.stage (fun () -> ignore (Ppd.Race.all_pairs g)));
            Test.make ~name:"scan"
              (Staged.stage (fun () -> ignore (Ppd.Race.detect g)));
            Test.make ~name:"static"
              (Staged.stage (fun () ->
                   ignore (Analysis.Static_race.analyze prog)));
          ]
      in
      let results = measure_tests ~quota:0.25 tests in
      row "%-22s %8d %12d %12s %12d %12s %12s\n"
        (Printf.sprintf "%dx%d %s" workers incs
           (if mutex then "protected" else "racy"))
        (Array.length g.Ppd.Pardyn.iedges)
        oracle.Ppd.Race.pairs_examined
        (fmt_ns (time_of results "t5/oracle"))
        scan.Ppd.Race.pairs_examined
        (fmt_ns (time_of results "t5/scan"))
        (fmt_ns (time_of results "t5/static")))
    [
      (2, 6, false); (4, 6, false); (8, 6, false); (16, 6, false);
      (2, 150, true); (4, 150, true); (8, 150, true);
    ];
  print_endline
    "(tests = Pardyn.edge_before calls for the scan, edge pairs for the \
     oracle; static = text-only lockset analysis: schedule-independent, \
     over-approximate)"

(* ------------------------------------------------------------------ *)
(* T6: debugging-phase query cost (§3.1, §5.3).                         *)
(* ------------------------------------------------------------------ *)

let t6 () =
  header "T6  Flowback query cost: intervals emulated vs total";
  row "%-16s %10s %10s %12s %14s %12s\n" "workload" "intervals" "replayed"
    "replay steps" "trace events" "replayed %";
  List.iter
    (fun (name, src, query_all) ->
      let eb, _halt, log, tr, _m = logged_artifacts src in
      let ctl = Ppd.Controller.start eb log in
      (match Ppd.Controller.last_event_node ctl ~pid:0 with
      | Some root ->
        if query_all then ignore (Ppd.Flowback.backward_slice ctl root)
        else ignore (Ppd.Flowback.dependences ctl root)
      | None -> ());
      let st = Ppd.Controller.stats ctl in
      row "%-16s %10d %10d %12d %14d %11.0f%%\n" name
        st.Ppd.Controller.intervals_total st.Ppd.Controller.replays
        st.Ppd.Controller.replay_steps
        (Trace.Full_trace.nevents tr)
        (100.
        *. float_of_int st.Ppd.Controller.replays
        /. float_of_int (max 1 st.Ppd.Controller.intervals_total)))
    [
      ("fig41/shallow", Workloads.fig41, false);
      ("fig41/slice", Workloads.fig41, true);
      ("deep-24/shallow", Workloads.deep_calls ~depth:24, false);
      ("deep-24/slice", Workloads.deep_calls ~depth:24, true);
      ("fib-10/shallow", Workloads.fib 10, false);
      ("branchy/slice", Workloads.branchy ~rounds:60, true);
    ];
  print_endline
    "(shallow queries touch few intervals; whole-slice queries expand on demand)"

(* ------------------------------------------------------------------ *)
(* T7: state restoration (§5.7).                                        *)
(* ------------------------------------------------------------------ *)

let t7 () =
  header "T7  State restoration from postlogs vs re-execution";
  let src = Workloads.counter ~workers:4 ~incs:40 ~mutex:true in
  let eb, _halt, log, _tr, m = logged_artifacts src in
  let prog = eb.Analysis.Eblock.prog in
  let total_steps = Runtime.Machine.nsteps m in
  row "%-14s %14s %16s %18s\n" "restore to" "log entries" "re-exec steps"
    "restored count";
  List.iter
    (fun frac ->
      let step = total_steps * frac / 100 in
      let snap = Ppd.Restore.shared_at prog log ~step in
      row "%13d%% %14d %16d %18s\n" frac snap.Ppd.Restore.entries_scanned step
        (Runtime.Value.to_string snap.Ppd.Restore.globals.(0)))
    [ 25; 50; 75; 100 ];
  let tests =
    Test.make_grouped ~name:"t7"
      [
        Test.make ~name:"restore"
          (Staged.stage (fun () ->
               ignore (Ppd.Restore.shared_at prog log ~step:(total_steps / 2))));
        Test.make ~name:"re-execute"
          (Staged.stage (fun () -> run_bare prog));
      ]
  in
  let results = measure_tests ~quota:0.3 tests in
  row "restore %s vs full re-execution %s\n"
    (fmt_ns (time_of results "t7/restore"))
    (fmt_ns (time_of results "t7/re-execute"))

(* ------------------------------------------------------------------ *)
(* T8: statement-level MHP — analysis cost and sync-unit prelog         *)
(* pruning (fewer log entries, same replay fidelity).                   *)
(* ------------------------------------------------------------------ *)

let t8 () =
  header "T8  Statement-level MHP: lint cost and sync-unit prelog pruning";
  let suite =
    workloads
    @ [ ("config-4x40", Workloads.config_pipeline ~workers:4 ~rounds:40) ]
  in
  let sync_prelog_stats (log : Trace.Log.t) =
    Array.fold_left
      (Array.fold_left (fun (n, vars) entry ->
           match entry with
           | Trace.Log.Sync_prelog { vals; _ } ->
             (n + 1, vars + List.length vals)
           | _ -> (n, vars)))
      (0, 0) log.Trace.Log.entries
  in
  row "%-14s %10s %10s %10s %10s %9s\n" "workload" "entries" "pruned"
    "vars" "pruned" "Δvars";
  List.iter
    (fun (name, src) ->
      let prog = compile src in
      let eb_raw = Analysis.Eblock.analyze ~prune_sync_prelogs:false prog in
      let eb = Analysis.Eblock.analyze prog in
      let _, raw_log, _ = Trace.Logger.run_logged ~sched eb_raw in
      let _, log, _ = Trace.Logger.run_logged ~sched eb in
      let n0, v0 = sync_prelog_stats raw_log in
      let n1, v1 = sync_prelog_stats log in
      row "%-14s %10d %10d %10d %10d %9s\n" name n0 n1 v0 v1
        (if v0 = 0 then "n/a"
         else pct (float_of_int v0) (float_of_int v1)))
    suite;
  let cfg_prog =
    compile (Workloads.config_pipeline ~workers:4 ~rounds:40)
  in
  let tests =
    Test.make_grouped ~name:"t8"
      [
        Test.make ~name:"mhp"
          (Staged.stage (fun () -> ignore (Analysis.Mhp.compute cfg_prog)));
        Test.make ~name:"lint"
          (Staged.stage (fun () -> ignore (Analysis.Lint.run cfg_prog)));
        Test.make ~name:"eblock+prune"
          (Staged.stage (fun () -> ignore (Analysis.Eblock.analyze cfg_prog)));
      ]
  in
  let results = measure_tests ~quota:0.3 tests in
  row "mhp %s   lint (all passes) %s   eblock analysis with pruning %s\n"
    (fmt_ns (time_of results "t8/mhp"))
    (fmt_ns (time_of results "t8/lint"))
    (fmt_ns (time_of results "t8/eblock+prune"))

(* ------------------------------------------------------------------ *)
(* T9: durable store — save, load and open of a segment.               *)
(* ------------------------------------------------------------------ *)

type t9_row = {
  t9_name : string;
  t9_entries : int;
  t9_v2_bytes : int;
  t9_v2_save_ns : float;
  t9_v2_load_ns : float;
  t9_v2_open_ns : float;
}

let t9_rows () =
  List.map
    (fun (name, src) ->
      let prog = compile src in
      let eb = Analysis.Eblock.analyze prog in
      let _, log, _ = Trace.Logger.run_logged ~sched eb in
      let v2b = Store.Segment.encoded_size log in
      let path = Filename.temp_file "ppd_bench" ".log" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let tests =
            Test.make_grouped ~name:"t9"
              [
                Test.make ~name:"save"
                  (Staged.stage (fun () ->
                       Store.Segment.save path log));
                Test.make ~name:"load"
                  (Staged.stage (fun () ->
                       ignore (Store.Segment.load path)));
                (* open = trailer + footer only: what the demand-paged
                   controller pays before the first query *)
                Test.make ~name:"open"
                  (Staged.stage (fun () ->
                       ignore (Store.Segment.open_file path)));
              ]
          in
          let results = measure_tests ~quota:0.3 tests in
          {
            t9_name = name;
            t9_entries = Trace.Log.entry_count log;
            t9_v2_bytes = v2b;
            t9_v2_save_ns = time_of results "t9/save";
            t9_v2_load_ns = time_of results "t9/load";
            t9_v2_open_ns = time_of results "t9/open";
          }))
    workloads

let t9 () =
  header "T9  Durable store: CRC-framed segments (save, load, open)";
  row "%-14s %8s %9s %11s %11s %11s\n" "workload" "entries" "bytes" "save"
    "load" "open";
  List.iter
    (fun r ->
      row "%-14s %8d %9d %11s %11s %11s\n" r.t9_name r.t9_entries
        r.t9_v2_bytes (fmt_ns r.t9_v2_save_ns) (fmt_ns r.t9_v2_load_ns)
        (fmt_ns r.t9_v2_open_ns))
    (t9_rows ())

(* ------------------------------------------------------------------ *)
(* T10: parallel emulation — domain-pool batch replay vs serial.        *)
(* ------------------------------------------------------------------ *)

(* Bechamel drives the closure many times inside one measurement, which
   is wrong for a stage that spawns domains and mutates a controller;
   T10 times whole batch replays by wall clock instead (best of
   [t10_repeats]). *)
let t10_repeats = 3

let t10_jobs = [ 1; 2; 4; 8 ]

let t10_workloads =
  [
    ("config-8x300", Workloads.config_pipeline ~workers:8 ~rounds:300);
    ("config-4x600", Workloads.config_pipeline ~workers:4 ~rounds:600);
  ]

type t10_run = { tr_jobs : int; tr_domains : int; tr_seconds : float }

type t10_row = {
  tn_name : string;
  tn_intervals : int;
  tn_runs : t10_run list;
  tn_identical : bool;  (* every pool size built the same graph *)
}

let t10_rows () =
  List.map
    (fun (name, src) ->
      let prog = compile src in
      let eb = Analysis.Eblock.analyze prog in
      let _, log, _ = Trace.Logger.run_logged ~sched eb in
      let all_keys ctl =
        List.concat
          (List.init log.Trace.Log.nprocs (fun pid ->
               List.init
                 (Array.length (Ppd.Controller.intervals ctl ~pid))
                 (fun iv_id -> (pid, iv_id))))
      in
      let replay_once jobs =
        let pool = if jobs > 1 then Some (Exec.Pool.create ~jobs ()) else None in
        let ctl = Ppd.Controller.start ?pool eb log in
        let keys = all_keys ctl in
        (* monotonic, not wall-clock: gettimeofday is subject to NTP
           slews/steps, which on a long batch replay can shrink or
           stretch a measurement and flip the CI speedup gate *)
        let t0 = Obs.now_ns () in
        Ppd.Controller.build_intervals_par ctl keys;
        let dt = float_of_int (Obs.now_ns () - t0) /. 1e9 in
        Option.iter Exec.Pool.shutdown pool;
        let dump =
          Format.asprintf "%a" Ppd.Dyn_graph.pp (Ppd.Controller.graph ctl)
        in
        let domains = match pool with Some p -> Exec.Pool.jobs p | None -> 1 in
        (dt, dump, domains, List.length keys)
      in
      let intervals = ref 0 in
      let baseline = ref "" in
      let identical = ref true in
      let runs =
        List.map
          (fun jobs ->
            let best = ref infinity and doms = ref 1 in
            for _ = 1 to t10_repeats do
              let dt, dump, domains, nkeys = replay_once jobs in
              if dt < !best then best := dt;
              doms := domains;
              intervals := nkeys;
              if jobs = 1 && !baseline = "" then baseline := dump
              else if dump <> !baseline then identical := false
            done;
            { tr_jobs = jobs; tr_domains = !doms; tr_seconds = !best })
          t10_jobs
      in
      {
        tn_name = name;
        tn_intervals = !intervals;
        tn_runs = runs;
        tn_identical = !identical;
      })
    t10_workloads

let t10 () =
  header
    "T10  Parallel emulation: domain-pool batch replay vs -j1 (serial)";
  Printf.printf "(host reports %d core(s); pool sizes above that are clamped)\n"
    (Exec.Pool.default_jobs ());
  row "%-14s %10s" "workload" "intervals";
  List.iter (fun j -> row " %9s" (Printf.sprintf "-j%d" j)) t10_jobs;
  row " %9s %10s\n" "speedup4" "identical";
  List.iter
    (fun r ->
      row "%-14s %10d" r.tn_name r.tn_intervals;
      List.iter
        (fun tr -> row " %9s" (fmt_ns (tr.tr_seconds *. 1e9)))
        r.tn_runs;
      let time_at j =
        List.find_opt (fun tr -> tr.tr_jobs = j) r.tn_runs
        |> Option.map (fun tr -> tr.tr_seconds)
      in
      (match (time_at 1, time_at 4) with
      | Some s1, Some s4 when s4 > 0. -> row " %8.2fx" (s1 /. s4)
      | _ -> row " %9s" "n/a");
      row " %10s\n" (if r.tn_identical then "yes" else "NO"))
    (t10_rows ());
  print_endline
    "(e-block intervals replay independently from their prelogs, so the\n\
    \      debugging phase parallelises; graph assembly stays serial and\n\
    \      deterministic — 'identical' checks the full graph dump)"

(* ------------------------------------------------------------------ *)
(* T11: overhead of the observability layer itself.                     *)
(* ------------------------------------------------------------------ *)

(* The layer's contract is "free when disabled": every counter and span
   operation reads one atomic boolean and returns. T11 measures the
   instrumented T1 logging path (which now carries obs calls) with
   collection off and on, plus the raw per-call cost of one disabled
   counter operation — the quantity the perf gate bounds, since it is
   what every hot path pays when nobody is profiling. *)

let t11_workloads =
  List.filter (fun (n, _) -> n = "counter-4x50" || n = "branchy-150") workloads

type t11_row = {
  te_name : string;
  te_bare_ns : float;
  te_off_ns : float;
  te_on_ns : float;
}

let t11_disabled_op_ns () =
  Obs.disable ();
  let c = Obs.counter "bench.t11.disabled_op" in
  let iters = 20_000_000 in
  let t0 = Obs.now_ns () in
  for _ = 1 to iters do
    Obs.incr c
  done;
  float_of_int (Obs.now_ns () - t0) /. float_of_int iters

let t11_rows () =
  List.map
    (fun (name, src) ->
      let prog = compile src in
      let eb = Analysis.Eblock.analyze prog in
      (* bare and obs-off share one measurement batch; obs-on runs in a
         second batch so the enabled flag never leaks into the others.
         The per-run [reset] keeps the recorded-span list from growing
         across bechamel iterations (and is itself part of the enabled
         cost, which only makes the "on" column conservative). *)
      let off =
        measure_tests ~quota:0.4
          (Test.make_grouped ~name:"t11"
             [
               Test.make ~name:(name ^ "/bare")
                 (Staged.stage (fun () -> run_bare prog));
               Test.make ~name:(name ^ "/off")
                 (Staged.stage (fun () -> run_logged eb));
             ])
      in
      Obs.enable ();
      let on =
        measure_tests ~quota:0.4
          (Test.make_grouped ~name:"t11"
             [
               Test.make ~name:(name ^ "/on")
                 (Staged.stage (fun () ->
                      Obs.reset ();
                      run_logged eb));
             ])
      in
      Obs.disable ();
      Obs.reset ();
      {
        te_name = name;
        te_bare_ns = time_of off ("t11/" ^ name ^ "/bare");
        te_off_ns = time_of off ("t11/" ^ name ^ "/off");
        te_on_ns = time_of on ("t11/" ^ name ^ "/on");
      })
    t11_workloads

let t11 () =
  header "T11  Observability-layer overhead (disabled must be free)";
  Printf.printf "disabled counter op: %.2f ns/call\n" (t11_disabled_op_ns ());
  row "%-14s %11s %11s %9s %11s %9s\n" "workload" "bare" "obs-off" "ovh"
    "obs-on" "ovh(on)";
  List.iter
    (fun r ->
      row "%-14s %11s %11s %9s %11s %9s\n" r.te_name (fmt_ns r.te_bare_ns)
        (fmt_ns r.te_off_ns)
        (pct r.te_bare_ns r.te_off_ns)
        (fmt_ns r.te_on_ns)
        (pct r.te_off_ns r.te_on_ns))
    (t11_rows ());
  print_endline
    "(obs-off vs bare is the T1 logging overhead; ovh(on) is what enabling\n\
    \      collection adds on top of it — profiling is pay-as-you-go)"

(* ------------------------------------------------------------------ *)
(* T12: overhead of the fault-injection layer itself.                   *)
(* ------------------------------------------------------------------ *)

(* Same contract as T11: a disarmed check site is one atomic load, so
   the layer can stay compiled into every I/O and execution edge. T12
   bounds the raw per-call cost of a disarmed [Fault.fire], then times
   a full log-and-flowback pass disarmed vs armed with a plan entry
   that never matches — the worst armed case that still injects
   nothing, so every check pays the full plan lookup. *)

let t12_site = Fault.site "bench.t12.point"

let t12_disabled_op_ns () =
  Fault.disarm ();
  let iters = 20_000_000 in
  let t0 = Obs.now_ns () in
  for _ = 1 to iters do
    ignore (Fault.fire t12_site)
  done;
  float_of_int (Obs.now_ns () - t0) /. float_of_int iters

let t12_workloads = t11_workloads

type t12_row = { tf_name : string; tf_off_ns : float; tf_armed_ns : float }

let t12_rows () =
  List.map
    (fun (name, src) ->
      let prog = compile src in
      let eb = Analysis.Eblock.analyze prog in
      (* one closure covers both phases the layer instruments: the
         logged execution (sink/segment sites) and the serial interval
         replay of the debugging phase (pool/emulator sites) *)
      let flow () =
        let logger = Trace.Logger.create eb in
        let m =
          Runtime.Machine.create ~sched ~max_steps:5_000_000
            ~hooks:(Trace.Logger.factory logger) prog
        in
        ignore (Runtime.Machine.run m);
        let log = Trace.Logger.finish logger in
        let ctl = Ppd.Controller.start eb log in
        let keys =
          List.concat
            (List.init log.Trace.Log.nprocs (fun pid ->
                 List.init
                   (Array.length (Ppd.Controller.intervals ctl ~pid))
                   (fun iv_id -> (pid, iv_id))))
        in
        Ppd.Controller.build_intervals_par ctl keys
      in
      Fault.disarm ();
      let off =
        measure_tests ~quota:0.4
          (Test.make_grouped ~name:"t12"
             [ Test.make ~name:(name ^ "/off") (Staged.stage flow) ])
      in
      (match Fault.arm "bench.t12.point:1000000000" with
      | Ok () -> ()
      | Error e -> failwith e);
      let armed =
        measure_tests ~quota:0.4
          (Test.make_grouped ~name:"t12"
             [ Test.make ~name:(name ^ "/armed") (Staged.stage flow) ])
      in
      Fault.disarm ();
      {
        tf_name = name;
        tf_off_ns = time_of off ("t12/" ^ name ^ "/off");
        tf_armed_ns = time_of armed ("t12/" ^ name ^ "/armed");
      })
    t12_workloads

let t12 () =
  header "T12  Fault-injection layer overhead (disarmed must be free)";
  Printf.printf "disarmed check op: %.2f ns/call\n" (t12_disabled_op_ns ());
  row "%-14s %11s %11s %9s\n" "workload" "disarmed" "armed" "ovh";
  List.iter
    (fun r ->
      row "%-14s %11s %11s %9s\n" r.tf_name (fmt_ns r.tf_off_ns)
        (fmt_ns r.tf_armed_ns)
        (pct r.tf_off_ns r.tf_armed_ns))
    (t12_rows ());
  print_endline
    "(both columns run the full log-and-flowback pass; the armed plan\n\
    \      entry never matches, so the delta is pure bookkeeping — the CI\n\
    \      gate bounds the disarmed per-check cost)"

(* ------------------------------------------------------------------ *)
(* T13: the serve daemon under concurrent sessions.                     *)
(* ------------------------------------------------------------------ *)

(* N client threads drive the in-process dispatcher over one recorded
   log: each registers a session, opens a handle, waits until all N
   have opened, issues a fixed mix of flowback and replay requests, and
   closes. The wait keeps the log's registry entry open across the
   sessions: without it a session could run to completion before the
   next one opens, its close would drop the entry, and every session
   would start cold. Latency is measured
   around [handle_line] per heavy request. The shared fragment cache
   is what makes N sessions cheaper than N one-shot CLI runs, so its
   hit rate is the headline number; the admission queue is sized so
   nothing sheds, because T13's acceptance bar is zero protocol
   errors. *)

let t13_sessions = [ 1; 4; 16; 64 ]

let t13_requests_per_session = 6

type t13_row = {
  td_sessions : int;
  td_requests : int;  (* heavy requests completed *)
  td_errors : int;  (* error responses of any kind *)
  td_p50_ns : float;
  td_p99_ns : float;
  td_hits : int;
  td_misses : int;
  td_hit_rate : float;
  td_shed : int;
}

let t13_fixture () =
  let src = Workloads.config_pipeline ~workers:4 ~rounds:40 in
  let mpl = Filename.temp_file "ppd_t13" ".mpl" in
  let seg = Filename.temp_file "ppd_t13" ".seg" in
  Out_channel.with_open_text mpl (fun oc -> Out_channel.output_string oc src);
  let prog = compile src in
  let eb = Analysis.Eblock.analyze prog in
  let w = Store.Segment.Writer.to_file seg in
  let logger = Trace.Logger.create ~sink:(Store.Segment.Writer.sink w) eb in
  let m =
    Runtime.Machine.create ~sched ~max_steps:5_000_000
      ~hooks:(Trace.Logger.factory logger) prog
  in
  ignore (Runtime.Machine.run m);
  ignore (Trace.Logger.finish logger);
  Store.Segment.Writer.close w;
  (mpl, seg)

let t13_jint v name =
  match Option.bind (Serve.Json.member name v) Serve.Json.to_int with
  | Some i -> i
  | None -> 0

let t13_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let t13_rows () =
  let mpl, seg = t13_fixture () in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove mpl;
      Sys.remove seg)
    (fun () ->
      List.map
        (fun n ->
          (* fresh server per N: every row starts from a cold cache *)
          let config =
            {
              Serve.Server.default_config with
              jobs = 1;
              max_active = 8;
              max_queue = 4096;
            }
          in
          let srv = Serve.Server.create ~config () in
          let errors = Atomic.make 0 in
          let lock = Mutex.create () in
          let lats = ref [] in
          let hits = ref 0 in
          let misses = ref 0 in
          let opened = ref 0 in
          let all_opened = Condition.create () in
          let await_all_opened () =
            Mutex.lock lock;
            incr opened;
            if !opened = n then Condition.broadcast all_opened
            else
              while !opened < n do
                Condition.wait all_opened lock
              done;
            Mutex.unlock lock
          in
          let client () =
            let s = Serve.Server.session srv in
            let say line = Serve.Server.handle_line srv s line in
            let parse resp =
              match Serve.Json.parse resp with
              | Ok v ->
                if Serve.Json.member "error" v <> None then begin
                  Atomic.incr errors;
                  None
                end
                else Serve.Json.member "result" v
              | Error _ ->
                Atomic.incr errors;
                None
            in
            let h =
              let r =
                parse
                  (say
                     (Printf.sprintf
                        {|{"id":1,"method":"open","params":{"log":%S,"program":%S}}|}
                        seg mpl))
              in
              match r with Some r -> t13_jint r "handle" | None -> -1
            in
            await_all_opened ();
            let my_lats = ref [] in
            let my_hits = ref 0 in
            let my_misses = ref 0 in
            for k = 1 to t13_requests_per_session do
              let meth = if k land 1 = 1 then "flowback" else "replay" in
              let line =
                Printf.sprintf
                  {|{"id":%d,"method":"%s","params":{"handle":%d,"depth":2}}|}
                  (k + 1) meth h
              in
              let t0 = Obs.now_ns () in
              let resp = say line in
              let dt = float_of_int (Obs.now_ns () - t0) in
              (match parse resp with
              | Some r ->
                my_hits := !my_hits + t13_jint r "cacheHits";
                my_misses := !my_misses + t13_jint r "cacheMisses"
              | None -> ());
              my_lats := dt :: !my_lats
            done;
            ignore
              (say
                 (Printf.sprintf
                    {|{"id":99,"method":"close","params":{"handle":%d}}|} h));
            Serve.Server.end_session srv s;
            Mutex.lock lock;
            lats := !my_lats @ !lats;
            hits := !hits + !my_hits;
            misses := !misses + !my_misses;
            Mutex.unlock lock
          in
          let threads = List.init n (fun _ -> Thread.create client ()) in
          List.iter Thread.join threads;
          (* shed count from the daemon's own accounting *)
          let shed =
            let s0 = Serve.Server.session srv in
            let resp =
              Serve.Server.handle_line srv s0
                {|{"id":1,"method":"serverStats"}|}
            in
            Serve.Server.end_session srv s0;
            match Serve.Json.parse resp with
            | Ok v -> (
              match
                Option.bind (Serve.Json.member "result" v)
                  (Serve.Json.member "gate")
              with
              | Some g -> t13_jint g "shed"
              | None -> 0)
            | Error _ -> 0
          in
          Serve.Server.shutdown srv;
          let sorted = Array.of_list !lats in
          Array.sort Float.compare sorted;
          let looked_up = !hits + !misses in
          {
            td_sessions = n;
            td_requests = Array.length sorted;
            td_errors = Atomic.get errors;
            td_p50_ns = t13_percentile sorted 0.50;
            td_p99_ns = t13_percentile sorted 0.99;
            td_hits = !hits;
            td_misses = !misses;
            td_hit_rate =
              (if looked_up = 0 then 0.
               else float_of_int !hits /. float_of_int looked_up);
            td_shed = shed;
          })
        t13_sessions)

let t13 () =
  header "T13  Serve daemon: concurrent sessions over one shared log";
  row "%-10s %10s %8s %11s %11s %8s %8s %9s %6s\n" "sessions" "requests"
    "errors" "p50" "p99" "hits" "misses" "hit rate" "shed";
  List.iter
    (fun r ->
      row "%-10d %10d %8d %11s %11s %8d %8d %8.0f%% %6d\n" r.td_sessions
        r.td_requests r.td_errors (fmt_ns r.td_p50_ns) (fmt_ns r.td_p99_ns)
        r.td_hits r.td_misses (100. *. r.td_hit_rate) r.td_shed)
    (t13_rows ());
  print_endline
    "(every session issues the same flowback/replay mix; the shared\n\
    \      fragment cache turns N concurrent sessions into one cold pass\n\
    \      plus N-1 warm ones — the hit rate is the sharing visible)"

(* ------------------------------------------------------------------ *)
(* T14: the ordering-based logging tier (DESIGN §16) — bytes on disk,   *)
(* reconstruction cost and identity, and checkpoint-bounded seeks.      *)
(* ------------------------------------------------------------------ *)

(* Sync-heavy workloads are where the order tier earns its keep: the
   content tier snapshots every shared variable a sync unit may read,
   so when critical sections touch sizeable shared state (the hist
   rows) the
   log is dominated by value snapshots the order tier regenerates
   instead of recording. Scalar sync loops (counter, prodcons, ring)
   ride along as context: both tiers keep the sync skeleton verbatim,
   so the saving there is bounded by the snapshot share (~1-2x), and
   matmul-12 is the compute-heavy control with almost no sync at all.
   The perf gate (check_t14) requires an order-of-magnitude byte
   reduction on the sync-heavy set and reconstruction identity
   everywhere. *)
let t14_workloads =
  [
    ( "hist-4x24x512",
      Workloads.locked_hist ~workers:4 ~rounds:24 ~cells:512,
      true );
    ( "hist-8x12x512",
      Workloads.locked_hist ~workers:8 ~rounds:12 ~cells:512,
      true );
    ("counter-4x50", Workloads.counter ~workers:4 ~incs:50 ~mutex:true, false);
    ("prodcons-300", Workloads.producer_consumer ~items:300 ~cap:8, false);
    ("ring-6x12", Workloads.token_ring ~procs:6 ~rounds:12, false);
    ("matmul-12", Workloads.matmul 12, false);
  ]

type t14_row = {
  tv_name : string;
  tv_sync_heavy : bool;
  tv_steps : int;
  tv_content_bytes : int;
  tv_order_bytes : int;
  tv_ckpts : int;
  tv_identity : bool;  (* reconstruction == content log, entry for entry *)
  tv_recon_ns : float;
  tv_fb_content_ns : float;  (* Controller.start + first query *)
  tv_fb_order_ns : float;  (* same, including the reconstruction *)
  tv_scan_full : int;  (* restore scan cost without checkpoints *)
  tv_scan_ckpt : int;  (* same seek, seeded from the nearest checkpoint *)
}

let t14_tier =
  Trace.Log.T_order
    { Trace.Log.o_sched = "rr:4"; o_engine = "vm"; o_max_steps = 5_000_000 }

let t14_rows () =
  List.map
    (fun (name, src, sync_heavy) ->
      let prog = compile src in
      let eb = Analysis.Eblock.analyze prog in
      let _, content, m =
        Trace.Logger.run_logged ~sched ~max_steps:5_000_000 eb
      in
      let _, order, _ =
        Trace.Logger.run_logged ~sched ~max_steps:5_000_000 ~tier:t14_tier eb
      in
      let recon = Ppd.Reconstruct.reconstruct eb order in
      let identity =
        recon.Trace.Log.entries = content.Trace.Log.entries
        && recon.Trace.Log.stops = content.Trace.Log.stops
      in
      (* Seek-to-step: restore the shared store three quarters into the
         run. The reconstructed log carries the order log's checkpoints,
         the content log has none, so the scan counts isolate exactly
         what checkpoint seeding saves. *)
      let late = Runtime.Machine.nsteps m * 3 / 4 in
      let scan_full =
        (Ppd.Restore.shared_at prog content ~step:late)
          .Ppd.Restore.entries_scanned
      in
      let scan_ckpt =
        (Ppd.Restore.shared_at prog recon ~step:late)
          .Ppd.Restore.entries_scanned
      in
      let first_query log () =
        let ctl = Ppd.Controller.start eb log in
        ignore (Ppd.Controller.last_event_node ctl ~pid:0)
      in
      let results =
        measure_tests ~quota:0.3
          (Test.make_grouped ~name:"t14"
             [
               Test.make ~name:(name ^ "/recon")
                 (Staged.stage (fun () ->
                      ignore (Ppd.Reconstruct.reconstruct eb order)));
               Test.make ~name:(name ^ "/fb-content")
                 (Staged.stage (first_query content));
               Test.make ~name:(name ^ "/fb-order")
                 (Staged.stage (first_query order));
             ])
      in
      let t k = time_of results ("t14/" ^ name ^ "/" ^ k) in
      {
        tv_name = name;
        tv_sync_heavy = sync_heavy;
        tv_steps = Runtime.Machine.nsteps m;
        tv_content_bytes = Store.Segment.encoded_size content;
        tv_order_bytes = Store.Segment.encoded_size order;
        tv_ckpts = Array.length order.Trace.Log.ckpts;
        tv_identity = identity;
        tv_recon_ns = t "recon";
        tv_fb_content_ns = t "fb-content";
        tv_fb_order_ns = t "fb-order";
        tv_scan_full = scan_full;
        tv_scan_ckpt = scan_ckpt;
      })
    t14_workloads

let t14 () =
  header "T14  Ordering-based logging: bytes, reconstruction, seeks";
  row "%-14s %8s %9s %9s %7s %6s %10s %10s %10s %7s %7s\n" "workload" "steps"
    "content" "order" "ratio" "ident" "recon" "fb-cont" "fb-order" "scanF"
    "scanC";
  List.iter
    (fun r ->
      row "%-14s %8d %8dB %8dB %6.1fx %6b %10s %10s %10s %7d %7d\n" r.tv_name
        r.tv_steps r.tv_content_bytes r.tv_order_bytes
        (float_of_int r.tv_content_bytes /. float_of_int r.tv_order_bytes)
        r.tv_identity (fmt_ns r.tv_recon_ns)
        (fmt_ns r.tv_fb_content_ns)
        (fmt_ns r.tv_fb_order_ns)
        r.tv_scan_full r.tv_scan_ckpt)
    (t14_rows ());
  print_endline
    "(order logs keep only the sync order plus checkpoints; debugging\n\
    \      one re-executes the program under the recorded scheduler and\n\
    \      validates the sync skeleton, so flowback answers are identical)"

(* ------------------------------------------------------------------ *)
(* T16: communication-protocol analysis — latency of the product        *)
(* exploration and the MHP pairs it discharges, as the process count    *)
(* grows. The gate checks the proto column never falls below the        *)
(* spawn/join baseline (refinement must only ever add discharge).       *)
(* ------------------------------------------------------------------ *)

let t16_workloads =
  [
    ("pipeline/w2", Workloads.config_pipeline ~workers:2 ~rounds:2);
    ("pipeline/w3", Workloads.config_pipeline ~workers:3 ~rounds:2);
    ("pipeline/w4", Workloads.config_pipeline ~workers:4 ~rounds:2);
    ("ping_pong", Workloads.ping_pong ~rounds:2);
  ]

type t16_row = {
  tp_name : string;
  tp_states : int;
  tp_analyze_ns : float;
  tp_conflicting : int;
  tp_base : int;
  tp_proto : int;
}

let t16_rows () =
  List.map
    (fun (name, src) ->
      let prog = compile src in
      let base = Analysis.Mhp.compute prog in
      (* warm once (the measured call also produces the result we read) *)
      ignore (Analysis.Proto.analyze ~mhp:base prog);
      let iters = 25 in
      let t0 = Obs.now_ns () in
      let r = ref (Analysis.Proto.analyze ~mhp:base prog) in
      for _ = 2 to iters do
        r := Analysis.Proto.analyze ~mhp:base prog
      done;
      let ns = float_of_int (Obs.now_ns () - t0) /. float_of_int iters in
      let r = !r in
      let conflicting, d0 = Analysis.Proto.discharged_pairs prog base in
      let d1 =
        match r.Analysis.Proto.refined with
        | Some m -> snd (Analysis.Proto.discharged_pairs prog m)
        | None -> d0
      in
      {
        tp_name = name;
        tp_states = r.Analysis.Proto.stats.Analysis.Proto.states_full;
        tp_analyze_ns = ns;
        tp_conflicting = conflicting;
        tp_base = d0;
        tp_proto = d1;
      })
    t16_workloads

let t16 () =
  header "T16  Protocol analysis: latency and discharged MHP pairs";
  row "%-14s %8s %11s %12s %10s %10s\n" "workload" "states" "analyze"
    "conflicting" "base" "proto";
  List.iter
    (fun r ->
      row "%-14s %8d %11s %12d %10d %10d\n" r.tp_name r.tp_states
        (fmt_ns r.tp_analyze_ns) r.tp_conflicting r.tp_base r.tp_proto)
    (t16_rows ());
  print_endline
    "(base counts pairs discharged by spawn/join structure alone; proto\n\
    \      adds must-orderings and co-reachability exclusion from the\n\
    \      synchronous-product exploration — it may never be smaller)"

(* ------------------------------------------------------------------ *)
(* JSON emission (for the CI perf gate; no external JSON dependency).   *)
(* ------------------------------------------------------------------ *)

let jfloat f = if Float.is_nan f then "null" else Printf.sprintf "%.9g" f

let t1_json () =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"workload\":%S,\"steps\":%d,\"interp_bare_ns\":%s,\
              \"interp_logged_ns\":%s,\"vm_bare_ns\":%s,\"vm_instr_ns\":%s,\
              \"vm_logged_ns\":%s}"
             r.t1_name r.t1_steps
             (jfloat r.t1_interp_bare_ns)
             (jfloat r.t1_interp_logged_ns)
             (jfloat r.t1_vm_bare_ns)
             (jfloat r.t1_vm_instr_ns)
             (jfloat r.t1_vm_logged_ns))
         (t1_rows ()))
  ^ "]"

let t9_json () =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"workload\":%S,\"entries\":%d,\"v2_bytes\":%d,\
              \"v2_save_ns\":%s,\"v2_load_ns\":%s,\"v2_open_ns\":%s}"
             r.t9_name r.t9_entries r.t9_v2_bytes (jfloat r.t9_v2_save_ns) (jfloat r.t9_v2_load_ns)
             (jfloat r.t9_v2_open_ns))
         (t9_rows ()))
  ^ "]"

let t10_json () =
  let rows = t10_rows () in
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"workload\":%S,\"intervals\":%d,\"identical\":%b,\"runs\":[%s]}"
             r.tn_name r.tn_intervals r.tn_identical
             (String.concat ","
                (List.map
                   (fun tr ->
                     Printf.sprintf
                       "{\"jobs\":%d,\"domains\":%d,\"seconds\":%s}" tr.tr_jobs
                       tr.tr_domains (jfloat tr.tr_seconds))
                   r.tn_runs)))
         rows)
  ^ "]"

let t11_json () =
  Printf.sprintf "{\"disabled_op_ns\":%s,\"rows\":[%s]}"
    (jfloat (t11_disabled_op_ns ()))
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf
              "{\"workload\":%S,\"bare_ns\":%s,\"off_ns\":%s,\"on_ns\":%s}"
              r.te_name (jfloat r.te_bare_ns) (jfloat r.te_off_ns)
              (jfloat r.te_on_ns))
          (t11_rows ())))

let t12_json () =
  Printf.sprintf "{\"disabled_op_ns\":%s,\"rows\":[%s]}"
    (jfloat (t12_disabled_op_ns ()))
    (String.concat ","
       (List.map
          (fun r ->
            Printf.sprintf "{\"workload\":%S,\"off_ns\":%s,\"armed_ns\":%s}"
              r.tf_name (jfloat r.tf_off_ns) (jfloat r.tf_armed_ns))
          (t12_rows ())))

let t13_json () =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"sessions\":%d,\"requests\":%d,\"errors\":%d,\
              \"p50_ns\":%s,\"p99_ns\":%s,\"hits\":%d,\"misses\":%d,\
              \"hit_rate\":%s,\"shed\":%d}"
             r.td_sessions r.td_requests r.td_errors (jfloat r.td_p50_ns)
             (jfloat r.td_p99_ns) r.td_hits r.td_misses
             (jfloat r.td_hit_rate) r.td_shed)
         (t13_rows ()))
  ^ "]"

let t14_json () =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"workload\":%S,\"sync_heavy\":%b,\"steps\":%d,\
              \"content_bytes\":%d,\"order_bytes\":%d,\"checkpoints\":%d,\
              \"identity\":%b,\"recon_ns\":%s,\"fb_content_ns\":%s,\
              \"fb_order_ns\":%s,\"scan_full\":%d,\"scan_ckpt\":%d}"
             r.tv_name r.tv_sync_heavy r.tv_steps r.tv_content_bytes
             r.tv_order_bytes r.tv_ckpts r.tv_identity (jfloat r.tv_recon_ns)
             (jfloat r.tv_fb_content_ns)
             (jfloat r.tv_fb_order_ns)
             r.tv_scan_full r.tv_scan_ckpt)
         (t14_rows ()))
  ^ "]"

let t16_json () =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"workload\":%S,\"states\":%d,\"analyze_ns\":%s,\
              \"conflicting\":%d,\"discharged_base\":%d,\
              \"discharged_proto\":%d}"
             r.tp_name r.tp_states
             (jfloat r.tp_analyze_ns)
             r.tp_conflicting r.tp_base r.tp_proto)
         (t16_rows ()))
  ^ "]"

(* ------------------------------------------------------------------ *)
(* T17: daemon survivability (DESIGN §17) — deadline refusals,          *)
(* quarantine isolation, crash recovery, and memory governance.         *)
(* ------------------------------------------------------------------ *)

(* Every scenario drives the in-process dispatcher the way T13 does;
   the difference is what goes wrong on purpose. Refusals the
   resilience layer issues by design (PPD090 past a deadline, PPD050
   and then PPD091 on a poisoned co-tenant) are counted apart from
   protocol errors, which must stay zero. check_t17 enforces that
   bar, the isolation bound (healthy p99 beside a poisoned co-tenant
   at most 2x the baseline), and the memory budget. *)

type t17_row = {
  tz_scenario : string;
  tz_requests : int;
  tz_errors : int;  (* unexpected protocol errors: the bar is zero *)
  tz_refused : int;  (* PPD050/PPD090/PPD091 issued by design *)
  tz_p50_ns : float;
  tz_p99_ns : float;
  tz_aux : (string * int) list;  (* scenario-specific counters *)
}

type t17_acc = {
  za_lock : Mutex.t;
  mutable za_lats : float list;
  mutable za_errors : int;
  mutable za_refused : int;
}

let t17_acc () =
  { za_lock = Mutex.create (); za_lats = []; za_errors = 0; za_refused = 0 }

let t17_expected =
  [ "PPD050"; Serve.Rpc.err_deadline; Serve.Rpc.err_quarantined ]

let t17_copy src dst =
  Out_channel.with_open_bin dst (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_bin src In_channel.input_all))

(* Flip one byte inside every page frame: the footer index stays
   intact, so the poisoned log opens fine and every replay is a
   PPD050 hard fault — the deterministic quarantine trigger. *)
let t17_poison seg =
  let pages = (Store.Segment.fsck seg).Store.Segment.fk_pages in
  let b =
    Bytes.of_string (In_channel.with_open_bin seg In_channel.input_all)
  in
  List.iter
    (fun (p : Store.Segment.fsck_page) ->
      let off = p.Store.Segment.fp_offset + 4 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff)))
    pages;
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b))

let t17_err_code resp =
  match Serve.Json.parse resp with
  | Ok v ->
    Option.map
      (fun e ->
        Option.value ~default:"?"
          (Option.bind (Serve.Json.member "code" e) Serve.Json.to_str))
      (Serve.Json.member "error" v)
  | Error _ -> Some "unparseable"

(* One client session: open a handle on [seg], issue [requests]
   flowbacks with [params] spliced into the body, classify every
   response, fold the latencies into [acc]. *)
let t17_client srv ~mpl ~seg ~requests ~params acc =
  let s = Serve.Server.session srv in
  let say line = Serve.Server.handle_line srv s line in
  let h =
    let resp =
      say
        (Printf.sprintf
           {|{"id":1,"method":"open","params":{"log":%S,"program":%S}}|} seg
           mpl)
    in
    match Serve.Json.parse resp with
    | Ok v -> (
      match Serve.Json.member "result" v with
      | Some r -> t13_jint r "handle"
      | None -> -1)
    | Error _ -> -1
  in
  let my = ref [] and errs = ref 0 and refused = ref 0 in
  for k = 1 to requests do
    let line =
      Printf.sprintf
        {|{"id":%d,"method":"flowback","params":{"handle":%d,"depth":2%s}}|}
        (k + 1) h params
    in
    let t0 = Obs.now_ns () in
    let resp = say line in
    let dt = float_of_int (Obs.now_ns () - t0) in
    (match t17_err_code resp with
    | None -> ()
    | Some c when List.mem c t17_expected -> incr refused
    | Some _ -> incr errs);
    my := dt :: !my
  done;
  ignore
    (say
       (Printf.sprintf {|{"id":99,"method":"close","params":{"handle":%d}}|} h));
  Serve.Server.end_session srv s;
  Mutex.lock acc.za_lock;
  acc.za_lats <- !my @ acc.za_lats;
  acc.za_errors <- acc.za_errors + !errs;
  acc.za_refused <- acc.za_refused + !refused;
  Mutex.unlock acc.za_lock

let t17_finish ~scenario ~aux acc =
  let sorted = Array.of_list acc.za_lats in
  Array.sort Float.compare sorted;
  {
    tz_scenario = scenario;
    tz_requests = Array.length sorted;
    tz_errors = acc.za_errors;
    tz_refused = acc.za_refused;
    tz_p50_ns = t13_percentile sorted 0.50;
    tz_p99_ns = t13_percentile sorted 0.99;
    tz_aux = aux;
  }

let t17_stats srv =
  let s = Serve.Server.session srv in
  let resp =
    Serve.Server.handle_line srv s {|{"id":1,"method":"serverStats"}|}
  in
  Serve.Server.end_session srv s;
  match Serve.Json.parse resp with
  | Ok v -> Serve.Json.member "result" v
  | Error _ -> None

let t17_config =
  {
    Serve.Server.default_config with
    jobs = 1;
    max_active = 8;
    max_queue = 4096;
  }

let t17_rows () =
  let mpl, seg = t13_fixture () in
  let bad = seg ^ ".poisoned" in
  t17_copy seg bad;
  t17_poison bad;
  let jpath = Filename.temp_file "ppd_t17" ".journal" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun f -> try Sys.remove f with Sys_error _ -> ())
        [ mpl; seg; bad; jpath ])
    (fun () ->
      (* deadline: a mocked resilience clock advances 10 ms per
         reading, so a 5 ms budget is over by the first deadline check
         and every request that replays is refused at an e-block
         boundary; the percentiles are the real-time cost of saying no
         (wall-clock latencies are measured on the unmocked Obs clock) *)
      let deadline_row =
        let tick = Atomic.make 0 in
        Resil.Clock.with_source
          (fun () -> 10_000_000 * Atomic.fetch_and_add tick 1)
          (fun () ->
            let srv = Serve.Server.create ~config:t17_config () in
            let acc = t17_acc () in
            let ths =
              List.init 4 (fun _ ->
                  Thread.create
                    (fun () ->
                      t17_client srv ~mpl ~seg ~requests:8
                        ~params:{|,"deadlineMs":5|} acc)
                    ())
            in
            List.iter Thread.join ths;
            Serve.Server.shutdown srv;
            t17_finish ~scenario:"deadline" ~aux:[] acc)
      in
      (* the healthy load alone: the baseline the isolation bound
         compares against *)
      let baseline_row =
        let srv = Serve.Server.create ~config:t17_config () in
        let acc = t17_acc () in
        let ths =
          List.init 4 (fun _ ->
              Thread.create
                (fun () -> t17_client srv ~mpl ~seg ~requests:6 ~params:"" acc)
                ())
        in
        List.iter Thread.join ths;
        Serve.Server.shutdown srv;
        t17_finish ~scenario:"quarantine_baseline" ~aux:[] acc
      in
      (* the same healthy load beside a poisoned co-tenant: the bad
         log trips its breaker and fast-fails; the healthy sessions
         must barely notice *)
      let quarantine_rows =
        let srv = Serve.Server.create ~config:t17_config () in
        let healthy = t17_acc () in
        let poisoned = t17_acc () in
        let ths =
          List.init 4 (fun _ ->
              Thread.create
                (fun () ->
                  t17_client srv ~mpl ~seg ~requests:6 ~params:"" healthy)
                ())
          @ List.init 2 (fun _ ->
                Thread.create
                  (fun () ->
                    t17_client srv ~mpl ~seg:bad ~requests:8 ~params:""
                      poisoned)
                  ())
        in
        List.iter Thread.join ths;
        let trips, fast =
          match
            Option.bind (t17_stats srv) (Serve.Json.member "breakers")
          with
          | Some (Serve.Json.List bs) ->
            List.fold_left
              (fun (t, f) b ->
                (t + t13_jint b "trips", f + t13_jint b "fastFails"))
              (0, 0) bs
          | Some _ | None -> (0, 0)
        in
        Serve.Server.shutdown srv;
        [
          t17_finish ~scenario:"quarantine_healthy"
            ~aux:[ ("breaker_trips", trips); ("breaker_fast_fails", fast) ]
            healthy;
          t17_finish ~scenario:"quarantine_poisoned" ~aux:[] poisoned;
        ]
      in
      (* recovery: journal, crash (no shutdown), resume, attach the
         dead session, re-query — the latency is the whole cycle *)
      let recovery_row =
        let acc = t17_acc () in
        let srv0 = Serve.Server.create ~config:t17_config ~journal:jpath () in
        let s0 = Serve.Server.session srv0 in
        let say0 line = Serve.Server.handle_line srv0 s0 line in
        ignore
          (say0
             (Printf.sprintf
                {|{"id":1,"method":"open","params":{"log":%S,"program":%S}}|}
                seg mpl));
        ignore (say0 {|{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}|});
        let dead = ref (Serve.Server.session_id s0) in
        let cycles = 5 in
        for _ = 1 to cycles do
          let t0 = Obs.now_ns () in
          let srv = Serve.Server.create ~config:t17_config ~resume:jpath () in
          let s = Serve.Server.session srv in
          let say line = Serve.Server.handle_line srv s line in
          let at =
            say
              (Printf.sprintf
                 {|{"id":1,"method":"attach","params":{"session":%d}}|} !dead)
          in
          let resp =
            say {|{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}|}
          in
          let dt = float_of_int (Obs.now_ns () - t0) in
          Mutex.lock acc.za_lock;
          acc.za_lats <- dt :: acc.za_lats;
          if t17_err_code at <> None || t17_err_code resp <> None then
            acc.za_errors <- acc.za_errors + 1;
          Mutex.unlock acc.za_lock;
          dead := Serve.Server.session_id s
          (* and crash again: no end_session, no shutdown — the journal
             already re-recorded the adopted session under its new id *)
        done;
        t17_finish ~scenario:"recovery" ~aux:[ ("cycles", cycles) ] acc
      in
      (* 64 sessions under one daemon-wide byte budget: the caches
         must evict to fit, and the answers must keep coming. A
         monitor thread samples the gauges mid-soak (the high-water
         mark), and a final session holds a handle open so the gauges
         are live when the settled reading is taken. *)
      let soak_row =
        let config = { t17_config with mem_budget = 64 * 1024 } in
        let srv = Serve.Server.create ~config () in
        let acc = t17_acc () in
        let mem_of () =
          match Option.bind (t17_stats srv) (Serve.Json.member "memory") with
          | Some m -> (t13_jint m "budgetCap", t13_jint m "budgetUsed")
          | None -> (0, 0)
        in
        let stop = Atomic.make false in
        let high = Atomic.make 0 in
        let monitor =
          Thread.create
            (fun () ->
              while not (Atomic.get stop) do
                let _, used = mem_of () in
                if used > Atomic.get high then Atomic.set high used;
                Thread.yield ()
              done)
            ()
        in
        let ths =
          List.init 64 (fun _ ->
              Thread.create
                (fun () -> t17_client srv ~mpl ~seg ~requests:4 ~params:"" acc)
                ())
        in
        List.iter Thread.join ths;
        Atomic.set stop true;
        Thread.join monitor;
        (* the settled reading, with the caches still referenced *)
        let s = Serve.Server.session srv in
        ignore
          (Serve.Server.handle_line srv s
             (Printf.sprintf
                {|{"id":1,"method":"open","params":{"log":%S,"program":%S}}|}
                seg mpl));
        ignore
          (Serve.Server.handle_line srv s
             {|{"id":2,"method":"flowback","params":{"handle":1,"depth":2}}|});
        let cap, used = mem_of () in
        Serve.Server.end_session srv s;
        Serve.Server.shutdown srv;
        t17_finish ~scenario:"soak64"
          ~aux:
            [
              ("budget_cap", cap);
              ("budget_used", used);
              ("budget_used_max", max used (Atomic.get high));
            ]
          acc
      in
      (deadline_row :: baseline_row :: quarantine_rows)
      @ [ recovery_row; soak_row ])

let t17 () =
  header "T17  Daemon survivability: deadlines, quarantine, recovery, memory";
  row "%-20s %9s %7s %8s %11s %11s  %s\n" "scenario" "requests" "errors"
    "refused" "p50" "p99" "notes";
  List.iter
    (fun r ->
      let notes =
        String.concat " "
          (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.tz_aux)
      in
      row "%-20s %9d %7d %8d %11s %11s  %s\n" r.tz_scenario r.tz_requests
        r.tz_errors r.tz_refused (fmt_ns r.tz_p50_ns) (fmt_ns r.tz_p99_ns)
        notes)
    (t17_rows ());
  print_endline
    "(refusals are the resilience layer working as designed — PPD090 past\n\
    \      a deadline, PPD050/PPD091 on the poisoned co-tenant; protocol\n\
    \      errors must stay zero, and check_t17 gates the healthy p99 beside\n\
    \      the poisoned co-tenant at 2x the baseline)"

let t17_json () =
  "["
  ^ String.concat ","
      (List.map
         (fun r ->
           Printf.sprintf
             "{\"scenario\":%S,\"requests\":%d,\"errors\":%d,\"refused\":%d,\
              \"p50_ns\":%s,\"p99_ns\":%s%s}"
             r.tz_scenario r.tz_requests r.tz_errors r.tz_refused
             (jfloat r.tz_p50_ns) (jfloat r.tz_p99_ns)
             (String.concat ""
                (List.map
                   (fun (k, v) -> Printf.sprintf ",%S:%d" k v)
                   r.tz_aux)))
         (t17_rows ()))
  ^ "]"

(* ------------------------------------------------------------------ *)
(* Figures.                                                             *)
(* ------------------------------------------------------------------ *)

let f41 () =
  header "Figure 4.1  Dynamic program dependence graph (SubD fragment)";
  let prog = compile Workloads.fig41 in
  let eb = Analysis.Eblock.analyze prog in
  let logger = Trace.Logger.create eb in
  let m =
    Runtime.Machine.create ~sched ~hooks:(Trace.Logger.factory logger) prog
  in
  ignore (Runtime.Machine.run m);
  let log = Trace.Logger.finish logger in
  let ctl = Ppd.Controller.start eb log in
  ignore (Ppd.Controller.last_event_node ctl ~pid:0);
  Format.printf "%a@." Ppd.Dyn_graph.pp (Ppd.Controller.graph ctl)

let f53 () =
  header "Figure 5.3  Simplified static graph and synchronization units (foo3)";
  let prog = compile Workloads.foo3 in
  let f = Option.get (Lang.Prog.find_func prog "foo3") in
  let cfg = Analysis.Cfg.build prog f in
  Format.printf "%a@." (Analysis.Simplified.pp prog) (Analysis.Simplified.build prog cfg)

let f61 () =
  header "Figure 6.1  Parallel dynamic graph (three processes, blocking send)";
  let prog = compile Workloads.fig61 in
  let obs = Ppd.Pardyn.observer prog in
  let m = Runtime.Machine.create ~sched ~hooks:(Ppd.Pardyn.factory obs) prog in
  ignore (Runtime.Machine.run m);
  Format.printf "%a@." Ppd.Pardyn.pp (Ppd.Pardyn.finish obs)

(* ------------------------------------------------------------------ *)
(* Driver.                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("f41", f41);
    ("f53", f53);
    ("f61", f61);
    ("t1", t1);
    ("t2", t2);
    ("t3", t3);
    ("t4", t4);
    ("t5", t5);
    ("t6", t6);
    ("t7", t7);
    ("t8", t8);
    ("t9", t9);
    ("t10", t10);
    ("t11", t11);
    ("t12", t12);
    ("t13", t13);
    ("t14", t14);
    ("t16", t16);
    ("t17", t17);
  ]

(* Tables with a machine-readable emitter (`bench -- --json t9 t10`):
   one top-level object, a field per table, plus the host core count so
   downstream gates can tell whether a speedup was even possible. *)
let json_experiments =
  [
    ("t1", t1_json);
    ("t9", t9_json);
    ("t10", t10_json);
    ("t11", t11_json);
    ("t12", t12_json);
    ("t13", t13_json);
    ("t14", t14_json);
    ("t16", t16_json);
    ("t17", t17_json);
  ]

let () =
  let args =
    Sys.argv |> Array.to_list |> List.tl |> List.filter (fun a -> a <> "--")
  in
  let json_mode = List.mem "--json" args in
  let requested =
    args
    |> List.filter (fun a -> a <> "--json")
    |> List.map String.lowercase_ascii
  in
  let available = List.map fst experiments in
  (* a misspelled table must not silently pass (previously `bench -- t99`
     ran nothing and exited 0) *)
  let unknown = List.filter (fun r -> not (List.mem r available)) requested in
  if unknown <> [] then begin
    Printf.eprintf "unknown experiment(s): %s\navailable: %s\n"
      (String.concat ", " unknown)
      (String.concat ", " available);
    exit 1
  end;
  if json_mode then begin
    let requested =
      if requested = [] then List.map fst json_experiments else requested
    in
    let no_json =
      List.filter (fun r -> not (List.mem_assoc r json_experiments)) requested
    in
    if no_json <> [] then begin
      Printf.eprintf "no JSON emitter for: %s\nJSON-capable: %s\n"
        (String.concat ", " no_json)
        (String.concat ", " (List.map fst json_experiments));
      exit 1
    end;
    let fields =
      List.map
        (fun r -> Printf.sprintf "%S:%s" r ((List.assoc r json_experiments) ()))
        requested
    in
    Printf.printf "{\"host_cores\":%d,%s}\n"
      (Exec.Pool.default_jobs ())
      (String.concat "," fields)
  end
  else begin
    let selected =
      if requested = [] then experiments
      else List.filter (fun (name, _) -> List.mem name requested) experiments
    in
    print_endline "PPD benchmark harness (Miller & Choi, PLDI 1988)";
    List.iter (fun (_, f) -> f ()) selected
  end
