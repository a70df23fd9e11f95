(* Race detection (§6.3–6.4): two unsynchronised withdrawals from a
   shared bank balance. The parallel dynamic graph orders the processes'
   internal edges by their synchronization edges only; the two
   withdraw bodies are simultaneous and both read and write `balance` —
   a read/write and a write/write race. Adding a semaphore makes the
   edges ordered through the V->P token edges and the races disappear. *)

let analyse name src =
  Printf.printf "=== %s ===\n" name;
  let session = Ppd.Session.run ~sched:(Runtime.Sched.Random_seed 11) src in
  Printf.printf "%s; final balance: %s" (Ppd.Session.explain_halt session)
    (Ppd.Session.output session);
  (* the graph the debugging phase builds from the log: access sets from
     replaying every e-block interval *)
  let pd = Ppd.Controller.pardyn (Ppd.Session.controller session) in
  Format.printf "%a@.@." Ppd.Pardyn.pp pd;
  let stats = Ppd.Race.detect pd in
  Printf.printf "ordering tests (chain scan): %d\n"
    stats.Ppd.Race.pairs_examined;
  Format.printf "%a@.@." (Ppd.Race.pp_report pd) stats.Ppd.Race.races

let () =
  analyse "racy bank account" Workloads.racy_bank;
  analyse "bank account with semaphore" Workloads.fixed_bank;

  (* §6.3's exact scenario: SV written in two edges, read in a third. *)
  analyse "SV written twice, read once (§6.3)" Workloads.sv_race
