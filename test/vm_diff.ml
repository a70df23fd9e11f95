(* Standalone VM/interpreter differential fuzzer for CI.

   Runs random programs (sequential and parallel, race-free and racy)
   under a cycle of schedulers on both engines and requires identical
   observable behaviour: full event traces (pid, seq, step, event),
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

let run_engine engine prog eb sched =
  let logger = Trace.Logger.create eb in
  let ft = Trace.Full_trace.create () in
  let hooks =
    Runtime.Hooks.both (Trace.Logger.factory logger) (Trace.Full_trace.factory ft)
  in
  let m =
    Runtime.Machine.create ~engine ~sched ~max_steps:200_000 ~hooks prog
  in
  let halt = Runtime.Machine.run m in
  (halt, Trace.Full_trace.finish ft, Trace.Logger.finish logger, m)

(* The logger as the only observer: it declines local events, so the VM
   keeps assignments, predicates, prints and asserts on its bare path. *)
let logger_only engine eb sched =
  let logger = Trace.Logger.create eb in
  let m =
    Runtime.Machine.create ~engine ~sched ~max_steps:200_000
      ~hooks:(Trace.Logger.factory logger) eb.Analysis.Eblock.prog
  in
  ignore (Runtime.Machine.run m);
  let log = Trace.Logger.finish logger in
  (log, Marshal.to_string log [])

(* Every interval of a content log replayed by the product's emulator,
   which steps on the VM, and by the AST oracle. *)
let replay_agrees what eb log =
  match Oracle.Replay_diff.check eb log with
  | Ok _ -> ()
  | Error e -> fail "e-block replay%s differs from the AST oracle: %s" what e

let show_rec (r : Trace.Full_trace.rec_) =
  Format.asprintf "p%d #%d @%d %a" r.tr_pid r.tr_seq r.tr_step Runtime.Event.pp
    r.tr_ev

let halt_name = function
  | Runtime.Machine.Finished -> "finished"
  | Runtime.Machine.Deadlock _ -> "deadlock"
  | Runtime.Machine.Fault { msg; _ } -> "fault: " ^ msg
  | Runtime.Machine.Breakpoint { sid; _ } ->
    Printf.sprintf "breakpoint at s%d" sid
  | Runtime.Machine.Out_of_fuel -> "out of fuel"

let compare_runs prog eb eb_loops sched =
  let hi, ti, li, mi = run_engine Runtime.Machine.Interp_engine prog eb sched in
  let hv, tv, lv, mv = run_engine Runtime.Machine.Vm_engine prog eb sched in
  if hi <> hv then fail "halt differs: %s vs %s" (halt_name hi) (halt_name hv);
  if Runtime.Machine.output mi <> Runtime.Machine.output mv then
    fail "output differs:\n--- interp\n%s--- vm\n%s" (Runtime.Machine.output mi)
      (Runtime.Machine.output mv);
  if Runtime.Machine.nsteps mi <> Runtime.Machine.nsteps mv then
    fail "nsteps differs: %d vs %d" (Runtime.Machine.nsteps mi)
      (Runtime.Machine.nsteps mv);
  if Runtime.Machine.nprocs mi <> Runtime.Machine.nprocs mv then
    fail "nprocs differs: %d vs %d" (Runtime.Machine.nprocs mi)
      (Runtime.Machine.nprocs mv);
  for pid = 0 to Runtime.Machine.nprocs mi - 1 do
    if Runtime.Machine.proc_seq mi pid <> Runtime.Machine.proc_seq mv pid then
      fail "proc %d event count differs: %d vs %d" pid
        (Runtime.Machine.proc_seq mi pid)
        (Runtime.Machine.proc_seq mv pid)
  done;
  Array.iteri
    (fun slot _ ->
      let gi = Runtime.Machine.read_global mi slot
      and gv = Runtime.Machine.read_global mv slot in
      if gi <> gv then
        fail "global slot %d differs: %s vs %s" slot
          (Runtime.Value.to_string gi) (Runtime.Value.to_string gv))
    prog.Lang.Prog.global_inits;
  let ni = Array.length ti.Trace.Full_trace.recs
  and nv = Array.length tv.Trace.Full_trace.recs in
  for i = 0 to min ni nv - 1 do
    if ti.recs.(i) <> tv.recs.(i) then
      fail "trace diverges at event %d:\ninterp: %s\nvm:     %s" i
        (show_rec ti.recs.(i)) (show_rec tv.recs.(i))
  done;
  if ni <> nv then fail "trace lengths differ: %d vs %d" ni nv;
  (* the byte-identity claim for saved logs, not just the event level *)
  let bi = Marshal.to_string li [] and bv = Marshal.to_string lv [] in
  if bi <> bv then
    fail "marshalled log bytes differ (%d vs %d bytes)" (String.length bi)
      (String.length bv);
  let _, bl = logger_only Runtime.Machine.Vm_engine eb sched in
  if bi <> bl then
    fail "logger-only vm log bytes differ from interp (%d vs %d bytes)"
      (String.length bi) (String.length bl);
  let _, il = logger_only Runtime.Machine.Interp_engine eb_loops sched
  and loops_log, vl = logger_only Runtime.Machine.Vm_engine eb_loops sched in
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
            try compare_runs prog eb eb_loops sched
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
