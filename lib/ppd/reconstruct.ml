module L = Trace.Log

exception
  Divergence of {
    reason : string;
  }

let divergence fmt = Printf.ksprintf (fun reason -> raise (Divergence { reason })) fmt

(* Every order log re-executes on the VM: the interpreter engine,
   which older logs may name, records identical logs. *)
let check_engine = function
  | "vm" | "interp" -> ()
  | s -> divergence "order log names unknown engine %S" s

let sched_of_string s =
  match Runtime.Sched.policy_of_string s with
  | Some p -> p
  | None -> divergence "order log names unknown scheduler %S" s

(* One sync entry, printed compactly for divergence diagnostics. *)
let entry_desc = function
  | L.Sync { sid; seq; step_at; data } ->
    Format.asprintf "sync %s seq=%d step=%d %a"
      (match sid with None -> "-" | Some s -> "s" ^ string_of_int s)
      seq step_at L.pp_sync_data data
  | L.Prelog _ -> "prelog"
  | L.Postlog _ -> "postlog"
  | L.Sync_prelog _ -> "sync-prelog"

(* Validate that the re-executed run produced exactly the recorded
   sync-event order: same processes, same per-process sync skeleton,
   same stop counts. Any mismatch means the re-execution diverged from
   the recording (different build, program text, or flags) and the
   reconstruction cannot be trusted. *)
let validate ~(recorded : L.t) ~(recon : L.t) =
  if recon.L.nprocs <> recorded.L.nprocs then
    divergence "re-execution created %d process(es), the log records %d"
      recon.L.nprocs recorded.L.nprocs;
  for pid = 0 to recorded.L.nprocs - 1 do
    let want = L.sync_entries recorded ~pid in
    let got = L.sync_entries recon ~pid in
    let nw = List.length want and ng = List.length got in
    if nw <> ng then
      divergence "process %d performed %d sync event(s), the log records %d"
        pid ng nw;
    List.iter2
      (fun w g ->
        if w <> g then
          divergence "process %d diverged: log records [%s], re-execution did [%s]"
            pid (entry_desc w) (entry_desc g))
      want got;
    if recon.L.stops.(pid) <> recorded.L.stops.(pid) then
      divergence "process %d stopped at seq %d, the log records %d" pid
        recon.L.stops.(pid) recorded.L.stops.(pid)
  done

(* The content log plus the re-execution's step count (0 for a content
   log, which is its own reconstruction). *)
let run eb (log : L.t) =
  match log.L.tier with
  | L.T_content -> (log, 0)
  | L.T_order { o_sched; o_engine; o_max_steps } ->
    check_engine o_engine;
    let sched = sched_of_string o_sched in
    let _halt, recon, machine =
      Obs.phase "reconstruction" (fun () ->
          Trace.Logger.run_logged ~sched ~max_steps:o_max_steps eb)
    in
    validate ~recorded:log ~recon;
    (* Keep the order log's checkpoints: the execution is identical, so
       the checkpoint cuts are valid for the reconstructed entries and
       keep seek-to-step restores bounded by the checkpoint interval. *)
    ( { recon with L.tier = L.T_content; ckpts = log.L.ckpts },
      Runtime.Machine.nsteps machine )

let reconstruct eb log = fst (run eb log)

let reader eb r =
  let log, steps = run eb (Store.Segment.to_log r) in
  (Store.Segment.of_log log, steps)
