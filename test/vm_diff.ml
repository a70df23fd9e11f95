(* Standalone VM/interpreter differential fuzzer for CI.

   Runs random programs (sequential and parallel, race-free and racy)
   under a cycle of schedulers on the product machine (bytecode VM) and
   on the interpreter oracle (test/oracle, with its own driver), and
   requires identical observable behaviour: full event traces (pid,
   seq, step, event),
   halt state, program output, step count, per-process event counts,
   final globals, and the marshalled bytes of the saved incremental
   trace log. Those runs attach a full tracer, which reads every event.
   A further run records the VM through the logger alone — the path
   that `ppd log` and `record` take, where local statement events are
   never built — and its marshalled log must equal the interpreter's
   too, also with every loop an e-block, whose prelogs and postlogs
   hang on the loop events the VM must still emit. Every interval of
   both content logs is then replayed twice, by the product's emulator
   (on the VM) and by the AST emulator kept as its oracle
   (test/oracle), and the outcomes must be equal. The
   alcotest suite (test_vm.ml) runs a smaller version of
   the same oracle on every `dune runtest`; this executable exists so
   the vm-differential CI job can push the count much higher and upload
   a counterexample artifact on failure.

   Environment:
     PPD_VM_DIFF_COUNT  seeds to try (default 60)
     PPD_VM_DIFF_SEED   base seed (default 1)

   On a mismatch the offending program is written to
   vm-diff-counterexample.mpl (with the seed and scheduler in a
   comment) and the process exits 1. *)

let count =
  match Sys.getenv_opt "PPD_VM_DIFF_COUNT" with
  | Some s -> ( try int_of_string s with _ -> 60)
  | None -> 60

let base_seed =
  match Sys.getenv_opt "PPD_VM_DIFF_SEED" with
  | Some s -> ( try int_of_string s with _ -> 1)
  | None -> 1

let sched_name = function
  | Runtime.Sched.Round_robin q -> Printf.sprintf "rr:%d" q
  | Runtime.Sched.Random_seed s -> Printf.sprintf "random:%d" s
  | Runtime.Sched.Scripted _ -> "scripted"
  | Runtime.Sched.Guided _ -> "guided"

exception Mismatch of string

let fail fmt = Printf.ksprintf (fun m -> raise (Mismatch m)) fmt

module Machines = Oracle.Machines

let traced run eb sched =
  let logger = Trace.Logger.create eb in
  let ft = Oracle.Full_trace.create () in
  let hooks =
    Oracle.Hooks.both (Trace.Logger.factory logger) (Oracle.Full_trace.factory ft)
  in
  let r = run ~sched ~max_steps:200_000 ~hooks eb.Analysis.Eblock.prog in
  (r, Oracle.Full_trace.finish ft, Trace.Logger.finish logger)

(* The logger as the only observer: it declines local events, so the VM
   keeps assignments, predicates, prints and asserts on its bare path. *)
let logger_only run eb sched =
  let logger = Trace.Logger.create eb in
  ignore
    (run ~sched ~max_steps:200_000 ~hooks:(Trace.Logger.factory logger)
       eb.Analysis.Eblock.prog);
  let log = Trace.Logger.finish logger in
  (log, Marshal.to_string log [])

(* Every interval of a content log replayed by the product's emulator,
   which steps on the VM, and by the AST oracle. *)
let replay_agrees what eb log =
  match Oracle.Replay_diff.check eb log with
  | Ok _ -> ()
  | Error e -> fail "e-block replay%s differs from the AST oracle: %s" what e

let interp ~sched ~max_steps ~hooks prog =
  Machines.interp ~sched ~max_steps ~hooks prog

let vm ~sched ~max_steps ~hooks prog = Machines.vm ~sched ~max_steps ~hooks prog

let compare_runs eb eb_loops sched =
  let ri, ti, li = traced interp eb sched in
  let rv, tv, lv = traced vm eb sched in
  Option.iter (fail "%s") (Machines.diff ri rv);
  Option.iter (fail "%s") (Machines.trace_diff ti tv);
  (* the byte-identity claim for saved logs, not just the event level *)
  let bi = Marshal.to_string li [] and bv = Marshal.to_string lv [] in
  if bi <> bv then
    fail "marshalled log bytes differ (%d vs %d bytes)" (String.length bi)
      (String.length bv);
  let _, bl = logger_only vm eb sched in
  if bi <> bl then
    fail "logger-only vm log bytes differ from interp (%d vs %d bytes)"
      (String.length bi) (String.length bl);
  let _, il = logger_only interp eb_loops sched
  and loops_log, vl = logger_only vm eb_loops sched in
  if il <> vl then
    fail
      "logger-only vm log bytes with loop e-blocks differ from interp (%d vs \
       %d bytes)"
      (String.length il) (String.length vl);
  replay_agrees "" eb lv;
  replay_agrees " with loop e-blocks" eb_loops loops_log

let () =
  let failures = ref 0 in
  let cases = ref 0 in
  for i = 0 to count - 1 do
    let seed = base_seed + i in
    let programs =
      [
        ("sequential", Gen.sequential seed);
        ("parallel/protected", Gen.parallel ~protect:`Always seed);
        ("parallel/mixed", Gen.parallel ~protect:`Sometimes seed);
      ]
    in
    let scheds =
      [
        Runtime.Sched.Round_robin 1;
        Runtime.Sched.Round_robin 4;
        Runtime.Sched.Random_seed ((seed * 31) + 7);
      ]
    in
    List.iter
      (fun (kind, src) ->
        let prog = Lang.Compile.compile src in
        let eb = Analysis.Eblock.analyze prog in
        let eb_loops =
          Analysis.Eblock.analyze
            ~policy:
              { Analysis.Eblock.default_policy with loop_block_min_body = 1 }
            prog
        in
        List.iter
          (fun sched ->
            incr cases;
            try compare_runs eb eb_loops sched
            with Mismatch why ->
              incr failures;
              Printf.eprintf
                "MISMATCH seed=%d kind=%s sched=%s\n%s\n--- program ---\n%s\n"
                seed kind (sched_name sched) why src;
              let oc = open_out "vm-diff-counterexample.mpl" in
              Printf.fprintf oc "// vm-diff counterexample\n// seed=%d kind=%s sched=%s\n// %s\n%s"
                seed kind (sched_name sched)
                (String.map (function '\n' -> ' ' | c -> c) why)
                src;
              close_out oc)
          scheds)
      programs
  done;
  if !failures > 0 then begin
    Printf.eprintf "vm-diff: %d/%d cases mismatched (counterexample saved)\n"
      !failures !cases;
    exit 1
  end
  else
    Printf.printf "vm-diff: %d cases (seeds %d..%d), all identical\n" !cases
      base_seed
      (base_seed + count - 1)
