(* ppd — command-line front end for the Parallel Program Debugger.

   Subcommands cover the three phases of the paper: `check`/`analyze`
   (preparatory), `run`/`log` (execution), and `flowback`/`race`/
   `deadlock`/`restore` (debugging). *)

open Cmdliner

let read_source path =
  if path = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text path In_channel.input_all

let compile_or_die src =
  match Lang.Compile.compile_result src with
  | Ok p -> p
  | Error (loc, msg) ->
    Format.eprintf "%a@." Lang.Diag.pp_error (loc, msg);
    exit 1

(* ------------------------------------------------------------------ *)
(* Common arguments.                                                    *)
(* ------------------------------------------------------------------ *)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"MPL source file ('-' for stdin).")

let sched_conv =
  (* one parser/printer for scheduler specs, shared with the order-tier
     metadata that log files record (Runtime.Sched.policy_of_string) *)
  let parse s =
    match Runtime.Sched.policy_of_string s with
    | Some p -> Ok p
    | None -> Error (`Msg "expected rr:<quantum> or random:<seed>")
  in
  let print ppf = function
    | (Runtime.Sched.Round_robin _ | Runtime.Sched.Random_seed _) as p ->
      Format.pp_print_string ppf (Runtime.Sched.string_of_policy p)
    | Runtime.Sched.Scripted _ -> Format.fprintf ppf "scripted"
    | Runtime.Sched.Guided _ -> Format.fprintf ppf "guided"
  in
  Arg.conv (parse, print)

let sched_arg =
  Arg.(
    value
    & opt sched_conv Runtime.Sched.default
    & info [ "sched" ] ~docv:"POLICY"
        ~doc:"Scheduler: rr:<quantum> or random:<seed>.")

let steps_arg =
  Arg.(
    value
    & opt int 1_000_000
    & info [ "max-steps" ] ~docv:"N" ~doc:"Execution step budget.")

let inline_arg =
  Arg.(
    value
    & opt int 0
    & info [ "inline-leaves" ] ~docv:"N"
        ~doc:
          "Leaf functions with at most N statements are inlined into \
           their callers' e-blocks (\u{00A7}5.4).")

let loops_arg =
  Arg.(
    value
    & opt int 0
    & info [ "loop-blocks" ] ~docv:"N"
        ~doc:
          "While loops spanning at least N statements become their own \
           e-blocks (\u{00A7}5.4); 0 disables.")

let policy_of ?(loops = 0) inline =
  { Analysis.Eblock.leaf_inline_max_stmts = inline; loop_block_min_body = loops }

let break_arg =
  Arg.(
    value
    & opt_all int []
    & info [ "break" ] ~docv:"SID"
        ~doc:
          "Halt after statement SID executes (repeatable); use `ppd \
           analyze --show cfg` to find statement ids.")

let jobs_arg =
  Arg.(
    value
    & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Size of the domain pool the debugging phase replays log \
           intervals on (default: the machine's core count). $(b,-j 1) \
           is the serial path; every pool size produces byte-identical \
           output.")

(* 0 (the cmdliner default) means "the machine decides". *)
let resolve_jobs j = if j <= 0 then Exec.Pool.default_jobs () else j

let log_mode_arg =
  Arg.(
    value
    & opt (enum [ ("content", false); ("order", true) ]) false
    & info [ "log-mode" ] ~docv:"MODE"
        ~doc:
          "Logging tier (DESIGN \u{00A7}16): $(b,content) (default) records \
           value snapshots and is debugged directly; $(b,order) records \
           only the sync-event partial order plus periodic checkpoints \
           — an order of magnitude smaller for sync-heavy programs — \
           and is reconstructed by validated re-execution when the \
           debugging phase starts (a mismatch is PPD061, exit 8).")

let ckpt_every_arg =
  Arg.(
    value
    & opt int Trace.Logger.default_ckpt_every
    & info [ "ckpt-every" ] ~docv:"N"
        ~doc:
          "With $(b,--log-mode=order): record a full-state checkpoint \
           every N machine steps. Checkpoints bound the log window a \
           state restore must scan, not the reconstruction itself.")

(* Profiling flags shared by the instrumented commands. Either flag
   turns the observability layer on for the whole invocation; the
   profile is written after the command's normal output, so the
   deterministic stdout (-j1 vs -jN byte-identity) is untouched. *)
let profile_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Enable instrumentation and write the profile (phase spans, \
           per-replay timings, subsystem counters) as JSON to FILE \
           ('-' for stdout).")

let profile_trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-trace" ] ~docv:"FILE"
        ~doc:
          "Enable instrumentation and write a Chrome trace_event file \
           (load in chrome://tracing or Perfetto) to FILE.")

let profile_setup pout ptrace =
  if pout <> None || ptrace <> None then Obs.enable ()

(* Fault-injection and degraded-mode flags (DESIGN \u{00A7}12). *)

let fault_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:
          "Arm deterministic fault injection (repeatable, or \
           comma-separated): $(i,POINT:N[:KIND]). Points: trace.sink \
           (N = byte offset to crash the log sink at), \
           store.segment.write, store.segment.read, exec.pool.task, \
           ppd.emulator.replay (N = 1-based arrival). Kinds: crash, \
           torn, short, flip, enospc, transient, budget (each point \
           has a sensible default).")

let fault_seed_arg =
  Arg.(
    value & opt int 0
    & info [ "fault-seed" ] ~docv:"N"
        ~doc:
          "Seed for injected corruption (which bit a flip fault \
           touches); the same seed reproduces the same damage.")

let arm_faults specs seed =
  match specs with
  | [] -> ()
  | specs -> (
    match Fault.arm ~seed (String.concat "," specs) with
    | Ok () -> ()
    | Error e ->
      Format.eprintf "ppd: --fault: %s@." e;
      exit 124)

let load_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "load" ] ~docv:"LOG"
        ~doc:
          "Skip the execution phase: debug over the saved log LOG \
           (demand-paged for v2 segments), with FILE supplying the \
           program for the preparatory analyses.")

let profile_write pout ptrace =
  (match pout with
  | Some "-" -> print_string (Obs.to_json ())
  | Some path ->
    Obs.write_json path;
    Printf.printf "profile written to %s\n" path
  | None -> ());
  match ptrace with
  | Some path ->
    Obs.write_chrome_trace path;
    Printf.printf "trace written to %s\n" path
  | None -> ()

let session_of ?loops ?(breakpoints = []) ?log_order ?ckpt_every file
    sched steps inline =
  let src = read_source file in
  let prog = compile_or_die src in
  Ppd.Session.of_program ~sched ~max_steps:steps
    ~policy:(policy_of ?loops inline)
    ~breakpoints ?log_order ?ckpt_every prog

(* ------------------------------------------------------------------ *)
(* Subcommands.                                                         *)
(* ------------------------------------------------------------------ *)

let parse_cmd =
  let run file =
    match Lang.Diag.protect (fun () -> Lang.Parser.parse_program (read_source file)) with
    | Error (loc, msg) ->
      Format.eprintf "%a@." Lang.Diag.pp_error (loc, msg);
      exit 1
    | Ok ast -> print_string (Lang.Pp_ast.program_to_string ast)
  in
  Cmd.v
    (Cmd.info "parse" ~doc:"Parse an MPL file and pretty-print it back.")
    Term.(const run $ file_arg)

let check_cmd =
  let run file =
    let p = compile_or_die (read_source file) in
    Printf.printf
      "ok: %d function(s), %d statement(s), %d variable(s), %d shared, %d \
       semaphore(s), %d channel(s)\n"
      (Array.length p.Lang.Prog.funcs)
      (Array.length p.stmts) p.nvars
      (Array.length p.globals) (Array.length p.sems) (Array.length p.chans)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Compile (parse, resolve, type-check) an MPL file.")
    Term.(const run $ file_arg)

let analyze_cmd =
  let func_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "func" ] ~docv:"NAME" ~doc:"Restrict output to one function.")
  in
  let what_arg =
    Arg.(
      value
      & opt (enum [ ("cfg", `Cfg); ("pdg", `Pdg); ("simplified", `Simplified);
                    ("eblocks", `Eblocks); ("modref", `Modref); ("mhp", `Mhp) ])
          `Eblocks
      & info [ "show" ] ~docv:"WHAT"
          ~doc:"What to print: cfg, pdg, simplified, eblocks, modref or mhp.")
  in
  let run file func what inline =
    let p = compile_or_die (read_source file) in
    let eb = Analysis.Eblock.analyze ~policy:(policy_of inline) p in
    let selected (f : Lang.Prog.func) =
      match func with None -> true | Some n -> String.equal n f.fname
    in
    match what with
    | `Eblocks -> Format.printf "%a@." Analysis.Eblock.pp_summary eb
    | `Cfg ->
      Array.iter
        (fun f ->
          if selected f then
            Format.printf "%a@." Analysis.Cfg.pp eb.Analysis.Eblock.cfgs.(f.fid))
        p.funcs
    | `Pdg ->
      let pdgs = Analysis.Static_pdg.build_program p in
      Array.iter
        (fun (f : Lang.Prog.func) ->
          if selected f then
            Format.printf "%a@."
              (Analysis.Static_pdg.pp p)
              pdgs.Analysis.Static_pdg.pdgs.(f.fid))
        p.funcs
    | `Simplified ->
      Array.iter
        (fun (f : Lang.Prog.func) ->
          if selected f then
            Format.printf "%a@."
              (Analysis.Simplified.pp p)
              eb.Analysis.Eblock.simplified.(f.fid))
        p.funcs
    | `Modref ->
      Array.iter
        (fun (f : Lang.Prog.func) ->
          if selected f then
            Format.printf "%s: GMOD=%a GREF=%a@." f.fname
              (Analysis.Varset.pp_named p)
              eb.Analysis.Eblock.summary.Analysis.Interproc.gmod.(f.fid)
              (Analysis.Varset.pp_named p)
              eb.Analysis.Eblock.summary.Analysis.Interproc.gref.(f.fid))
        p.funcs
    | `Mhp -> Format.printf "%a@." Analysis.Mhp.pp eb.Analysis.Eblock.mhp
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Print the preparatory-phase analyses (static graphs, e-blocks).")
    Term.(const run $ file_arg $ func_arg $ what_arg $ inline_arg)

let run_cmd =
  let run file sched steps =
    let p = compile_or_die (read_source file) in
    let m = Runtime.Machine.create ~sched ~max_steps:steps p in
    let halt = Runtime.Machine.run m in
    print_string (Runtime.Machine.output m);
    (match halt with
    | Runtime.Machine.Finished -> ()
    | h ->
      Format.eprintf "%s@."
        (match h with
        | Runtime.Machine.Finished -> assert false
        | Runtime.Machine.Out_of_fuel -> "stopped: step budget exhausted"
        | Runtime.Machine.Breakpoint { pid; sid } ->
          Printf.sprintf "breakpoint in process %d at s%d" pid sid
        | Runtime.Machine.Deadlock _ -> "stopped: deadlock (try `ppd deadlock`)"
        | Runtime.Machine.Fault { pid; msg; _ } ->
          Printf.sprintf "fault in process %d: %s" pid msg);
      exit 2)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute an MPL program without instrumentation.")
    Term.(const run $ file_arg $ sched_arg $ steps_arg)

(* A debugging-phase failure: print its diagnostic, exit with the
   status the one table gives its code. Stdout is flushed first, so a
   partial answer precedes the diagnostic. *)
let fail d =
  flush stdout;
  Format.eprintf "%a@." Lang.Diag.pp_human [ d ];
  exit (List.assoc d.Lang.Diag.d_code Serve.Query.exit_table)

let ok_or_fail = function Ok v -> v | Error d -> fail d

(* Run [f] under the one failure map; never a bare uncaught exception. *)
let guarded f = ok_or_fail (Serve.Query.guard f)

let log_path_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"LOG" ~doc:"Saved log file.")

let log_cmd =
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"PATH"
          ~doc:
            "Stream the log to PATH as a durable v2 segment while the \
             program runs (records are flushed as e-blocks close).")
  in
  let run file sched steps inline loops save order ckpt_every faults
      fseed pout ptrace =
    profile_setup pout ptrace;
    arm_faults faults fseed;
    let src = read_source file in
    let prog = compile_or_die src in
    let tier =
      if order then Trace.Log.order_tier ~sched ~max_steps:steps
      else Trace.Log.T_content
    in
    let writer = Option.map (Store.Segment.Writer.to_file ~tier) save in
    let s =
      Ppd.Session.of_program ~sched ~max_steps:steps
        ~policy:(policy_of ~loops inline)
        ?log_sink:(Option.map Store.Segment.Writer.sink writer)
        ~log_order:order ~ckpt_every prog
    in
    print_endline (Ppd.Session.explain_halt s);
    let log = Ppd.Session.log s in
    Format.printf "%a@." (Trace.Log.pp (Ppd.Session.prog s)) log;
    Printf.printf "%d entries, %d bytes serialized\n"
      (Trace.Log.entry_count log)
      (Store.Segment.encoded_size log);
    if order then
      Printf.printf "order tier (%s, vm engine), %d checkpoint(s)\n"
        (Runtime.Sched.string_of_policy sched)
        (Array.length log.Trace.Log.ckpts);
    (match (save, writer) with
    | Some path, Some w -> (
      Store.Segment.Writer.close w;
      Printf.printf "saved to %s\n" path;
      match Store.Segment.Writer.failure w with
      | None -> ()
      | Some reason ->
        Printf.printf
          "log sink died: %s; only the durable prefix reached disk (see \
           `ppd fsck %s`)\n"
          reason path)
    | _ -> ());
    profile_write pout ptrace
  in
  let stats_cmd =
    let run path =
      guarded @@ fun () ->
      let r = Store.Segment.open_file path in
      let stmt_fid _ = -1 in
      let ivs = ref 0 in
      for pid = 0 to Store.Segment.nprocs r - 1 do
        ivs :=
          !ivs + Array.length (Store.Segment.intervals r ~stmt_fid ~pid)
      done;
      Printf.printf "%s: v%d, %d bytes, %s\n" path
        Store.Segment.format_version (Store.Segment.file_bytes r)
        (if Store.Segment.is_indexed r then "interval index intact"
         else "recovered by salvage scan");
      Printf.printf "%d process(es), %d record(s), %d interval(s)\n"
        (Store.Segment.nprocs r)
        (Store.Segment.entry_count r)
        !ivs;
      (match Store.Segment.tier r with
      | Trace.Log.T_content -> ()
      | Trace.Log.T_order m ->
        Printf.printf
          "order tier (%s, %s engine, %d-step budget), %d checkpoint(s)\n"
          m.Trace.Log.o_sched m.Trace.Log.o_engine m.Trace.Log.o_max_steps
          (Array.length (Store.Segment.ckpts r)));
      List.iter
        (fun d ->
          Printf.printf "damage at byte %d: %s\n"
            d.Store.Segment.dmg_offset d.Store.Segment.dmg_reason)
        (Store.Segment.damage r)
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Describe a saved log file (format, size, index, damage).")
      Term.(const run $ log_path_arg)
  in
  let compact_cmd =
    let in_arg =
      Arg.(
        required
        & pos 1 (some string) None
        & info [] ~docv:"LOG" ~doc:"Saved content-tier log to compact.")
    in
    let out_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"PATH"
            ~doc:"Where to write the order-tier segment.")
    in
    let no_verify_arg =
      Arg.(
        value & flag
        & info [ "no-verify" ]
            ~doc:
              "Skip the reconstruction check (re-executing the program \
               and comparing against the content log being compacted).")
    in
    let run file inpath sched steps inline loops out ckpt_every
        no_verify =
      let prog = compile_or_die (read_source file) in
      guarded @@ fun () ->
      let r = Store.Segment.open_file inpath in
      let module L = Trace.Log in
      let log = Store.Segment.to_log r in
      (match log.L.tier with
      | L.T_order _ ->
        Format.eprintf "ppd: %s is already an order-tier log@." inpath;
        exit 124
      | L.T_content -> ());
      (* The order tier keeps only the sync skeleton; checkpoints are
         synthesized from the content log's own value records, so a
         restore seeded from one equals the restore that scans the
         whole prefix (Restore.shared_at computes both the same way). *)
      let sync =
        Array.init log.L.nprocs (fun pid ->
            Array.of_list (L.sync_entries log ~pid))
      in
      let max_step =
        Array.fold_left
          (Array.fold_left (fun m e -> max m (L.entry_step_at e)))
          0 log.L.entries
      in
      let ckpts = ref [] in
      let cut = ref ckpt_every in
      while !cut <= max_step do
        let snap = Ppd.Restore.shared_at prog log ~step:!cut in
        ckpts :=
          {
            L.ck_step = !cut;
            ck_clock = snap.Ppd.Restore.clock;
            ck_globals = snap.Ppd.Restore.globals;
          }
          :: !ckpts;
        cut := !cut + ckpt_every
      done;
      let order =
        {
          L.nprocs = log.L.nprocs;
          entries = sync;
          stops = log.L.stops;
          tier = L.order_tier ~sched ~max_steps:steps;
          ckpts = Array.of_list (List.rev !ckpts);
          base = log.L.base;
        }
      in
      if not no_verify then begin
        let eb =
          Analysis.Eblock.analyze ~policy:(policy_of ~loops inline) prog
        in
        let recon = Ppd.Reconstruct.reconstruct eb order in
        if recon.L.entries <> log.L.entries then
          raise
            (Ppd.Reconstruct.Divergence
               {
                 reason =
                   "re-execution matches the sync order but not the \
                    recorded values (was the log recorded with these \
                    --sched/--max-steps?)";
               })
      end;
      Store.Segment.save out order;
      let out_bytes = (Unix.stat out).Unix.st_size in
      Printf.printf
        "%s: %d bytes (content) -> %s: %d bytes (order, %d sync \
         record(s), %d checkpoint(s))\n"
        inpath
        (Store.Segment.file_bytes r)
        out out_bytes (L.entry_count order)
        (Array.length order.L.ckpts)
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Rewrite a content-tier log as an order-tier segment: drop \
            every value snapshot, keep the sync-event partial order, \
            and synthesize periodic checkpoints. FILE must be the \
            program the log records, and --sched/--max-steps \
            must name the recording run (verified by re-execution \
            unless $(b,--no-verify)).")
      Term.(
        const run $ file_arg $ in_arg $ sched_arg $ steps_arg $ inline_arg
        $ loops_arg $ out_arg $ ckpt_every_arg $ no_verify_arg)
  in
  let repair_cmd =
    let out_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"PATH"
            ~doc:"Where to write the repaired segment.")
    in
    let run path out =
      let rp = guarded (fun () -> Store.Segment.repair path ~out) in
      Printf.printf
        "%s: v%d %s tier -> %s: %d bytes, %d page(s), %d record(s), %d \
         checkpoint(s)\n"
        path Store.Segment.format_version rp.Store.Segment.rp_tier out
        rp.Store.Segment.rp_out_bytes rp.Store.Segment.rp_kept_pages
        rp.Store.Segment.rp_kept_records rp.Store.Segment.rp_kept_ckpts;
      (match rp.Store.Segment.rp_dropped with
      | [] -> print_endline "clean: no bytes dropped"
      | drops ->
        List.iter
          (fun d ->
            if d.Store.Segment.rd_pid < 0 then
              Printf.printf "dropped: suffix at byte %d (%s)\n"
                d.Store.Segment.rd_offset d.Store.Segment.rd_reason
            else
              Printf.printf
                "dropped: pid %d page %d at byte %d, %d record(s) (%s)\n"
                d.Store.Segment.rd_pid d.Store.Segment.rd_page
                d.Store.Segment.rd_offset d.Store.Segment.rd_records
                d.Store.Segment.rd_reason)
          drops;
        exit 4)
    in
    Cmd.v
      (Cmd.info "repair"
         ~doc:
           "Rewrite everything salvageable from a damaged log into a \
            fresh, fully verified segment: the clean page prefix of each \
            process plus any salvageable pages, with the interval index \
            rebuilt. Exits 0 when nothing was lost, 4 when bytes had to \
            be dropped (each dropped page is reported).")
      Term.(const run $ log_path_arg $ out_arg)
  in
  let run_term =
    Term.(
      const run $ file_arg $ sched_arg $ steps_arg $ inline_arg $ loops_arg
      $ save_arg $ log_mode_arg $ ckpt_every_arg $ fault_arg $ fault_seed_arg $ profile_out_arg $ profile_trace_arg)
  in
  Cmd.group ~default:run_term
    (Cmd.info "log"
       ~doc:
         "Run with incremental-tracing instrumentation and dump the log; \
          `ppd log stats` describes a saved log file, `ppd log compact` \
          rewrites one to the order tier, `ppd log repair` salvages a \
          damaged one into a fresh verified segment.")
    [
      Cmd.v
        (Cmd.info "run"
           ~doc:"Run with instrumentation and dump the log (the default).")
        run_term;
      stats_cmd;
      compact_cmd;
      repair_cmd;
    ]

let verify_log_cmd =
  let run path =
    let rp = guarded (fun () -> Store.Segment.verify path) in
    Printf.printf "%s: v%d, %d bytes, %d record(s) in %d page(s), %s\n" path
      Store.Segment.format_version rp.Store.Segment.vr_bytes
      rp.Store.Segment.vr_records rp.Store.Segment.vr_pages
      (if rp.Store.Segment.vr_indexed then "index intact"
       else "index unusable");
    (match rp.Store.Segment.vr_damage with
    | [] -> print_endline "no damage detected"
    | dmg ->
      List.iter
        (fun d ->
          Printf.printf "damage at byte %d: %s\n" d.Store.Segment.dmg_offset
            d.Store.Segment.dmg_reason)
        dmg;
      exit 4)
  in
  Cmd.v
    (Cmd.info "verify-log"
       ~doc:
         "Walk every record frame of a saved log, checking CRCs, the \
          footer index and the trailer; exit 4 when damage is found.")
    Term.(const run $ log_path_arg)

(* A JSON string literal, for the hand-laid JSON reports. *)
let json_str s = Serve.Json.to_string (Serve.Json.Str s)

let fsck_cmd =
  let run path =
    let rp = guarded (fun () -> Store.Segment.fsck path) in
    let page (p : Store.Segment.fsck_page) =
      Printf.sprintf
        "    {\"pid\": %d, \"page\": %d, \"offset\": %d, \"count\": %d, \
         \"error\": %s}"
        p.Store.Segment.fp_pid p.Store.Segment.fp_page
        p.Store.Segment.fp_offset p.Store.Segment.fp_count
        (match p.Store.Segment.fp_error with
        | None -> "null"
        | Some e -> json_str e)
    in
    let dmg (d : Store.Segment.damage) =
      Printf.sprintf "    {\"offset\": %d, \"reason\": %s}"
        d.Store.Segment.dmg_offset
        (json_str d.Store.Segment.dmg_reason)
    in
    let arr = function
      | [] -> "[]"
      | rows -> "[\n" ^ String.concat ",\n" rows ^ "\n  ]"
    in
    Printf.printf
      "{\n\
      \  \"path\": %s,\n\
      \  \"version\": %d,\n\
      \  \"bytes\": %d,\n\
      \  \"indexed\": %b,\n\
      \  \"clean\": %b,\n\
      \  \"tier\": %s,\n\
      \  \"checkpoints\": %d,\n\
      \  \"procs\": %d,\n\
      \  \"records\": %d,\n\
      \  \"intervals\": %d,\n\
      \  \"pages\": %s,\n\
      \  \"damage\": %s\n\
       }\n"
      (json_str path) Store.Segment.format_version rp.Store.Segment.fk_bytes
      rp.Store.Segment.fk_indexed rp.Store.Segment.fk_clean
      (json_str rp.Store.Segment.fk_tier)
      rp.Store.Segment.fk_ckpts rp.Store.Segment.fk_procs
      rp.Store.Segment.fk_records
      rp.Store.Segment.fk_intervals
      (arr (List.map page rp.Store.Segment.fk_pages))
      (arr (List.map dmg rp.Store.Segment.fk_damage));
    if not rp.Store.Segment.fk_clean then exit 4
  in
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Check every page of a saved log — not just the prefix \
          $(b,verify-log) walks — and print a machine-readable JSON \
          damage report: per-page CRC failures with byte offsets, plus \
          a salvage summary (how many processes, records and intervals \
          survive). Exit 0 when clean, 4 when damaged, 6 when the file \
          is not a log at all.")
    Term.(const run $ log_path_arg)

(* ------------------------------------------------------------------ *)
(* The log-debugging commands: one per Serve.Query row.                 *)
(* ------------------------------------------------------------------ *)

(* The shared source flags: FILE, and a runner that arms the fault
   and profile flags, opens what a debugging command answers over (FILE
   run fresh under the logger, or the saved log --load names with FILE
   supplying the program), hands it to its argument, writes the profile
   and exits with the status the argument returns. *)
let source_term =
  let make file sched steps inline loops order ckpt_every load faults
      fault_seed pout ptrace =
    let with_source f =
      profile_setup pout ptrace;
      arm_faults faults fault_seed;
      let src =
        match load with
        | None ->
          Serve.Query.of_session
            (session_of ~loops ~log_order:order ~ckpt_every file
               sched steps inline)
        | Some log ->
          ok_or_fail
            (Serve.Query.open_source ~policy:(policy_of ~loops inline) ~log
               (compile_or_die (read_source file)))
      in
      let status = f src in
      profile_write pout ptrace;
      if status <> 0 then exit status
    in
    (file, with_source)
  in
  Term.(
    const make $ file_arg $ sched_arg $ steps_arg $ inline_arg
    $ loops_arg $ log_mode_arg $ ckpt_every_arg $ load_arg $ fault_arg
    $ fault_seed_arg $ profile_out_arg $ profile_trace_arg)

(* A row parameter as a flag: the kebab-case of its key. *)
let param_term (p : Serve.Query.param) =
  let flag_info =
    Arg.info [ Serve.Query.kebab p.key ] ~docv:p.docv ~doc:p.doc
  in
  match p.default with
  | Serve.Query.Int d ->
    Term.(
      const (fun v -> Serve.Query.Int v) $ Arg.(value & opt int d flag_info))
  | Serve.Query.Flag _ ->
    Term.(const (fun v -> Serve.Query.Flag v) $ Arg.(value & flag flag_info))
  | Serve.Query.Assigns _ ->
    Term.(
      const (fun v -> Serve.Query.Assigns v)
      $ Arg.(value & opt_all (pair ~sep:'=' string int) [] flag_info))

let args_term (row : Serve.Query.row) =
  List.fold_right
    (fun (p : Serve.Query.param) rest ->
      Term.(const (fun v rest -> (p.key, v) :: rest) $ param_term p $ rest))
    (row.params @ Serve.Query.common)
    (Term.const [])

(* Answer [row] over [src] into a sink. *)
let ask (row : Serve.Query.row) args src ?pool ?dot sink =
  let ctx =
    { Serve.Query.config = Serve.Query.config args; pool; shared = None; dot }
  in
  Obs.phase "debugging" (fun () -> row.run ctx args sink src)

(* The subcommand of a row: its parameters and the common ones as
   flags, beside the shared source flags. [front] adds the flags only
   this front end has; [present] prints the answer and returns the exit
   status. *)
let query_cmd name front present =
  let row = Option.get (Serve.Query.find name) in
  Cmd.v
    (Cmd.info name
       ~doc:
         ("Run the program (or $(b,--load) a saved log), then "
         ^ String.uncapitalize_ascii row.doc))
    Term.(
      const (fun (_, with_source) args x ->
          with_source (fun src -> present x src (ask row args src)))
      $ source_term $ args_term row $ front)

let flowback_cmd =
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"PATH"
          ~doc:"Write the dynamic graph as Graphviz dot to PATH.")
  in
  query_cmd "flowback" dot_arg (fun dot _src ask ->
      ignore (ok_or_fail (ask ?dot (Serve.Render.stdout_sink ())));
      0)

let replay_cmd =
  query_cmd "replay" jobs_arg (fun jobs _src ask ->
      let jobs = resolve_jobs jobs in
      let pool = if jobs > 1 then Some (Exec.Pool.create ~jobs ()) else None in
      let r = ask ?pool (Serve.Render.stdout_sink ()) in
      Option.iter Exec.Pool.shutdown pool;
      ignore (ok_or_fail r);
      0)

(* A row with no front-end flags of its own. *)
let report_cmd name =
  query_cmd name (Term.const ()) (fun () _src ask ->
      ignore (ok_or_fail (ask (Serve.Render.stdout_sink ())));
      0)

let restore_cmd = report_cmd "restore"

let whatif_cmd = report_cmd "whatif"

let format_arg =
  Arg.(
    value
    & opt (enum [ ("human", `Human); ("json", `Json) ]) `Human
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: human or json.")

let proto_cmd =
  let dot_arg =
    Arg.(
      value & flag
      & info [ "dot" ]
          ~doc:
            "Emit the per-process communication automata as Graphviz \
             instead of exploring the product.")
  in
  let budget_arg =
    Arg.(
      value
      & opt int 200_000
      & info [ "budget" ] ~docv:"N"
          ~doc:"Product-state exploration budget (per exploration).")
  in
  let bound_arg =
    Arg.(
      value
      & opt int 8
      & info [ "bound" ] ~docv:"N"
          ~doc:
            "Cut unbounded channel buffers and extra semaphore tokens at \
             N (exceeding it demotes universal claims to 'within budget').")
  in
  let no_replay_arg =
    Arg.(
      value & flag
      & info [ "no-replay" ]
          ~doc:"Skip guided-replay validation of deadlock certificates.")
  in
  let run file format dot budget bound no_replay =
    let p = compile_or_die (read_source file) in
    let r = Analysis.Proto.analyze ~budget ~bound p in
    if dot then
      Format.printf "%a@." (Analysis.Effects.dot p) r.Analysis.Proto.effects
    else begin
      let certs =
        match r.Analysis.Proto.verdict with
        | Analysis.Proto.Deadlocks cs -> cs
        | _ -> []
      in
      let replayed =
        List.map
          (fun c ->
            ( c,
              if no_replay then None
              else Some (Runtime.Cert_replay.validate p c) ))
          certs
      in
      (match format with
      | `Human ->
        Format.printf "%a@." Analysis.Proto.pp r;
        List.iteri
          (fun i (_, res) ->
            match res with
            | None -> ()
            | Some (Runtime.Cert_replay.Confirmed { schedule; _ }) ->
              Printf.printf
                "certificate %d: confirmed by guided replay (schedule: %s)\n"
                (i + 1)
                (String.concat " " (List.map string_of_int schedule))
            | Some (Runtime.Cert_replay.Diverged why) ->
              Printf.printf "certificate %d: unconfirmed candidate (%s)\n"
                (i + 1) why)
          replayed
      | `Json ->
        let base_c, base_d = Analysis.Proto.discharged_pairs p r.Analysis.Proto.mhp in
        let ref_d =
          match r.Analysis.Proto.refined with
          | None -> base_d
          | Some m -> snd (Analysis.Proto.discharged_pairs p m)
        in
        let cert_json (c, res) =
          let steps =
            List.map
              (fun (s : Analysis.Proto.step) ->
                Printf.sprintf "{\"cls\":%d,\"sid\":%d,\"act\":%s}"
                  s.st_cls s.st_sid
                  (json_str
                     (Format.asprintf "%a" (Analysis.Proto.pp_step p) s)))
              c.Analysis.Proto.cert_steps
          in
          let confirmed, detail =
            match res with
            | None -> ("null", [])
            | Some (Runtime.Cert_replay.Confirmed { schedule; _ }) ->
              ( "true",
                [
                  Printf.sprintf "\"schedule\":[%s]"
                    (String.concat ","
                       (List.map string_of_int schedule));
                ] )
            | Some (Runtime.Cert_replay.Diverged why) ->
              ("false", [ Printf.sprintf "\"diverged\":%s" (json_str why) ])
          in
          Printf.sprintf "{%s}"
            (String.concat ","
               ([
                  Printf.sprintf "\"kind\":%s"
                    (json_str (Analysis.Proto.kind_name c.cert_kind));
                  Printf.sprintf "\"steps\":[%s]" (String.concat "," steps);
                  Printf.sprintf "\"confirmed\":%s" confirmed;
                ]
               @ detail))
        in
        Printf.printf
          "{\"verdict\":%s,\"states_full\":%d,\"states_reduced\":%d,\
           \"truncated\":%b,\"certificates\":[%s],\"facts\":%d,\
           \"orphan_sends\":%d,\"dead_recvs\":%d,\"sem_leaks\":%d,\
           \"conflicting_pairs\":%d,\"discharged_base\":%d,\
           \"discharged_proto\":%d}\n"
          (json_str (Analysis.Proto.verdict_name r.Analysis.Proto.verdict))
          r.Analysis.Proto.stats.states_full
          r.Analysis.Proto.stats.states_reduced
          r.Analysis.Proto.stats.truncated
          (String.concat "," (List.map cert_json replayed))
          (List.length r.Analysis.Proto.facts)
          (List.length r.Analysis.Proto.orphan_sends)
          (List.length r.Analysis.Proto.dead_recvs)
          (List.length r.Analysis.Proto.sem_leaks)
          base_c base_d ref_d);
      if certs <> [] then exit 5
    end
  in
  Cmd.v
    (Cmd.info "proto"
       ~doc:
         "Analyze the communication protocol: per-process \
          channel/semaphore automata, a bounded exploration of their \
          synchronous product, deadlock certificates (replay-validated), \
          orphan communication and must-ordering facts; exit 5 when a \
          deadlock certificate is found.")
    Term.(
      const run $ file_arg $ format_arg $ dot_arg $ budget_arg $ bound_arg
      $ no_replay_arg)

let race_cmd =
  let static_arg =
    Arg.(
      value & flag
      & info [ "static" ]
          ~doc:
            "Report potential races from the program text (lockset \
             analysis) instead of executing.")
  in
  let proto_arg =
    Arg.(
      value & flag
      & info [ "proto" ]
          ~doc:
            "With --static: refine the MHP relation with \
             communication-protocol facts first (must-orderings and \
             state exclusion), discharging more pairs.")
  in
  let static_race file proto format =
    let p = compile_or_die (read_source file) in
    let ctx = Analysis.Lint.make_ctx p in
    let mhp =
      if not proto then ctx.mhp
      else begin
        match (Lazy.force ctx.proto).Analysis.Proto.refined with
        | Some refined ->
          let _, d0 = Analysis.Proto.discharged_pairs p ctx.mhp in
          let _, d1 = Analysis.Proto.discharged_pairs p refined in
          Printf.eprintf
            "protocol refinement: %d conflicting pair(s) discharged \
             (vs %d by spawn/join structure alone)\n%!"
            d1 d0;
          refined
        | None ->
          Printf.eprintf
            "protocol refinement unavailable (exploration incomplete); \
             using the base MHP relation\n%!";
          ctx.mhp
      end
    in
    match format with
    | `Human ->
      let reports = Analysis.Static_race.analyze ~mhp p in
      Format.printf "%a@." (Analysis.Static_race.pp_report p) reports;
      if reports <> [] then exit 3
    | `Json ->
      let races =
        List.find
          (fun q -> q.Analysis.Lint.pass_name = "races")
          Analysis.Lint.passes
      in
      let c = Lang.Diag.create () in
      races.pass_run { ctx with mhp } c;
      let diags = Lang.Diag.diagnostics c in
      print_endline (Lang.Diag.json_of_diagnostics diags);
      if diags <> [] then exit 3
  in
  (* the log's race report: after the source's first line, and closed
     by the number of edge pairs examined; or the races as JSON
     findings *)
  let present format src ask =
    let a =
      match format with
      | `Human ->
        let sink = Serve.Render.stdout_sink () in
        Serve.Query.header sink src;
        let a = ok_or_fail (ask sink) in
        Printf.printf "(%d edge pairs examined)\n"
          (List.assoc "pairsExamined" a.Serve.Query.fields);
        a
      | `Json ->
        let a = ok_or_fail (ask (Serve.Render.buffer_sink (Buffer.create 256))) in
        print_endline (Lang.Diag.json_of_diagnostics a.Serve.Query.findings);
        a
    in
    if a.Serve.Query.findings <> [] then 3 else 0
  in
  let row = Option.get (Serve.Query.find "race") in
  let run (file, with_source) args static proto format =
    if static then static_race file proto format
    else with_source (fun src -> present format src (ask row args src))
  in
  Cmd.v
    (Cmd.info "race"
       ~doc:
         "Detect data races: dynamically over one execution's log \
          (\u{00A7}6.4) \u{2014} run the program, or $(b,--load) a \
          saved log \u{2014} or statically from the text (--static, \
          \u{00A7}7).")
    Term.(
      const run $ source_term $ args_term row $ static_arg $ proto_arg
      $ format_arg)

let lint_cmd =
  let passes_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "pass" ] ~docv:"NAME"
          ~doc:
            "Run only this pass (repeatable); see --list-passes for the \
             registry.")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list-passes" ] ~doc:"List the registered lint passes.")
  in
  let opt_file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:"MPL source file ('-' for stdin); optional with --list-passes.")
  in
  let run file format only list_passes =
    if list_passes then
      List.iter
        (fun (q : Analysis.Lint.pass) ->
          Printf.printf "%-12s %s\n" q.pass_name q.pass_doc)
        Analysis.Lint.passes
    else begin
      let file =
        match file with
        | Some f -> f
        | None ->
          Format.eprintf "lint: a FILE is required unless --list-passes@.";
          exit 124
      in
      let only = match only with [] -> None | names -> Some names in
      match Lang.Compile.compile_result (read_source file) with
      | Error e ->
        (* front-end failures are findings too: PPD001 *)
        (match format with
        | `Human ->
          Format.printf "%a@." Lang.Diag.pp_human [ Lang.Diag.of_error e ]
        | `Json ->
          print_endline
            (Lang.Diag.json_of_diagnostics [ Lang.Diag.of_error e ]));
        exit 1
      | Ok p -> (
        match Analysis.Lint.run ?only p with
        | diags ->
          (match format with
          | `Human -> Format.printf "%a@." Lang.Diag.pp_human diags
          | `Json -> print_endline (Lang.Diag.json_of_diagnostics diags));
          if diags <> [] then exit 5
        | exception Analysis.Lint.Unknown_pass n ->
          Format.eprintf "unknown lint pass '%s'; available: %s@." n
            (String.concat ", " Analysis.Lint.pass_names);
          exit 124)
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static diagnostic passes (MHP-refined races, deadlock \
          candidates, unreachable code, uninitialised reads) without \
          executing; exit 5 when there are findings.")
    Term.(const run $ opt_file_arg $ format_arg $ passes_arg $ list_arg)

let deadlock_cmd =
  let run file sched steps =
    let s = session_of file sched steps 0 in
    print_endline (Ppd.Session.explain_halt s);
    let a = Ppd.Session.deadlock s in
    Format.printf "%a@." (Ppd.Deadlock.pp (Ppd.Session.prog s)) a;
    if Ppd.Deadlock.is_deadlocked a then exit 4
  in
  Cmd.v
    (Cmd.info "deadlock" ~doc:"Run the program and analyze deadlock causes.")
    Term.(const run $ file_arg $ sched_arg $ steps_arg)

let debug_cmd =
  let script_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "script" ] ~docv:"PATH"
          ~doc:"Read debugger commands from PATH instead of stdin.")
  in
  let run file sched steps inline loops breakpoints script =
    let s = session_of ~loops ~breakpoints file sched steps inline in
    print_endline (Ppd.Session.explain_halt s);
    let dbg = Ppd.Debugger.create s in
    print_endline (Ppd.Debugger.eval dbg "where");
    let input =
      match script with
      | Some path -> In_channel.with_open_text path In_channel.input_lines
      | None ->
        print_endline "(type `help` for commands, `quit` to leave)";
        []
    in
    let interactive = script = None in
    let rec loop lines =
      let line =
        match lines with
        | l :: _ -> Some l
        | [] ->
          if interactive then begin
            print_string "ppd> ";
            In_channel.input_line In_channel.stdin
          end
          else None
      in
      match line with
      | None -> ()
      | Some l ->
        if Ppd.Debugger.is_quit l then print_endline "bye"
        else begin
          (if not interactive then Printf.printf "ppd> %s\n" l);
          print_endline (Ppd.Debugger.eval dbg l);
          loop (match lines with _ :: rest -> rest | [] -> [])
        end
    in
    loop input
  in
  Cmd.v
    (Cmd.info "debug"
       ~doc:
         "Run the program, then debug it interactively with flowback \
          queries over the log (the \u{00A7}3.2.3 loop).")
    Term.(
      const run $ file_arg $ sched_arg $ steps_arg $ inline_arg $ loops_arg
      $ break_arg $ script_arg)

let examples_cmd =
  let run () =
    print_endline "bundled example programs (print with `ppd example NAME`):";
    List.iter (fun (name, _) -> Printf.printf "  %s\n" name) Workloads.all_fixed
  in
  Cmd.v (Cmd.info "examples" ~doc:"List bundled example programs.")
    Term.(const run $ const ())

let example_cmd =
  let name_arg =
    Arg.(
      required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Example name.")
  in
  let run name =
    match List.assoc_opt name Workloads.all_fixed with
    | Some src -> print_string src
    | None ->
      Printf.eprintf "unknown example %s\n" name;
      exit 1
  in
  Cmd.v (Cmd.info "example" ~doc:"Print a bundled example program.")
    Term.(const run $ name_arg)

(* `ppd profile …` is dispatched by hand before cmdliner runs (it must
   wrap an arbitrary inner command line); this stub only provides the
   `ppd --help` listing and a usage message for malformed invocations
   that slip through. *)
let profile_usage = "usage: ppd profile [-o FILE] [--trace FILE] COMMAND [ARG]…"

let profile_cmd =
  let run () =
    prerr_endline profile_usage;
    exit 124
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run any ppd command with the observability layer enabled and \
          export the profile: $(b,-o FILE) writes counters and spans as \
          JSON ('-' for stdout, the default), $(b,--trace FILE) writes \
          Chrome trace_event JSON for chrome://tracing or Perfetto.")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* The debugging daemon (DESIGN §14).                                   *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH" ~doc:"Listen on a unix-domain socket.")

let port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"Listen on TCP loopback port N.")

let serve_cmd =
  let rpc_arg =
    Arg.(
      value & flag
      & info [ "rpc" ]
          ~doc:
            "Serve one session over stdin/stdout instead of a socket \
             (one JSON request per line in, one id-matched response per \
             line out) — the transport cram tests and scripts drive.")
  in
  let max_active_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_active
      & info [ "max-active" ] ~docv:"N"
          ~doc:"Heavy requests (the debugging commands, proto and fsck) \
                running at once; more wait in the admission queue.")
  in
  let max_queue_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_queue
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Admission-queue depth; requests beyond it are shed with \
                the PPD084 busy error instead of stalling.")
  in
  let max_open_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.max_open_logs
      & info [ "max-open-logs" ] ~docv:"N"
          ~doc:"Per-session open-log quota (PPD085 beyond it).")
  in
  let step_quota_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.step_quota
      & info [ "step-quota" ] ~docv:"N"
          ~doc:"Per-session lifetime replay-step quota (PPD085 beyond it).")
  in
  let deadline_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.default_deadline_ms
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Deadline for heavy requests that carry no per-request \
                $(b,deadlineMs); expiry — in the admission queue or at an \
                e-block replay boundary — answers PPD090. 0 disables.")
  in
  let mem_budget_arg =
    Arg.(
      value
      & opt int Serve.Server.default_config.Serve.Server.mem_budget
      & info [ "mem-budget" ] ~docv:"BYTES"
          ~doc:"Daemon-wide byte budget shared by every page LRU and \
                fragment cache; over it, cost-weighted reclaim evicts \
                until usage fits. 0 means unlimited.")
  in
  let journal_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"PATH"
          ~doc:"Journal the session table (open logs, quotas) to PATH, \
                flushed per record, so a killed daemon can be resumed \
                with $(b,--resume).")
  in
  let resume_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "resume" ] ~docv:"PATH"
          ~doc:"Replay the session journal a killed daemon left at PATH: \
                its sessions become recoverable through the $(b,attach) \
                method, and journaling continues to the same file.")
  in
  let run socket port rpc jobs max_active max_queue max_open_logs step_quota
      default_deadline_ms mem_budget journal resume faults fseed pout ptrace =
    profile_setup pout ptrace;
    arm_faults faults fseed;
    let config =
      {
        Serve.Server.default_config with
        jobs = resolve_jobs jobs;
        max_active;
        max_queue;
        max_open_logs;
        step_quota;
        default_deadline_ms;
        mem_budget;
      }
    in
    let t = Serve.Server.create ~config ?journal ?resume () in
    (match (rpc, socket, port) with
    | true, None, None ->
      (* stdout carries only protocol lines in --rpc mode *)
      Serve.Server.run_stdio t;
      Serve.Server.shutdown t
    | false, Some path, None ->
      let stop = Atomic.make false in
      let on_signal _ = Atomic.set stop true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Printf.eprintf "ppd serve: listening on unix:%s (-j %d)\n%!" path
        config.Serve.Server.jobs;
      Serve.Server.run_unix ~stop t ~path;
      Printf.eprintf "ppd serve: stopped (pool drained, socket removed)\n%!"
    | false, None, Some port ->
      let stop = Atomic.make false in
      let on_signal _ = Atomic.set stop true in
      Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
      Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
      Printf.eprintf "ppd serve: listening on tcp:%d (-j %d)\n%!" port
        config.Serve.Server.jobs;
      Serve.Server.run_tcp ~stop t ~port;
      Printf.eprintf "ppd serve: stopped (pool drained)\n%!"
    | _ ->
      Format.eprintf
        "ppd serve: pass exactly one of --socket PATH, --port N or --rpc@.";
      exit 124);
    profile_write pout ptrace
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         ("Run the long-lived debugging daemon: a registry of opened \
           logs served to many concurrent sessions over line-delimited \
           JSON-RPC (methods: "
         ^ String.concat ", " Serve.Server.methods
         ^ "), sharing one \
          domain pool and one replayed-fragment cache per log across \
          sessions, with per-session quotas, request deadlines \
          (PPD090), per-log quarantine (PPD091), a shared memory \
          budget, crash-recoverable sessions (--journal/--resume, \
          PPD092 for stale handles) and a bounded admission queue \
          that sheds overload with the PPD084 busy error."))
    Term.(
      const run $ socket_arg $ port_arg $ rpc_arg $ jobs_arg $ max_active_arg
      $ max_queue_arg $ max_open_arg $ step_quota_arg $ deadline_arg
      $ mem_budget_arg $ journal_arg $ resume_arg $ fault_arg
      $ fault_seed_arg $ profile_out_arg $ profile_trace_arg)

let connect_cmd =
  let run socket port =
    let fd =
      match (socket, port) with
      | Some path, None ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_UNIX path)
         with Unix.Unix_error (e, _, _) ->
           Printf.eprintf "ppd connect: %s: %s\n" path (Unix.error_message e);
           exit 1);
        fd
      | None, Some port ->
        let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
        (try Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
         with Unix.Unix_error (e, _, _) ->
           Printf.eprintf "ppd connect: port %d: %s\n" port
             (Unix.error_message e);
           exit 1);
        fd
      | _ ->
        Format.eprintf "ppd connect: pass exactly one of --socket or --port@.";
        exit 124
    in
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* lockstep: one request line in, one response line out — exactly
       the protocol's per-connection ordering guarantee *)
    let rec loop () =
      match In_channel.input_line In_channel.stdin with
      | None -> ()
      | Some line ->
        if String.trim line = "" then loop ()
        else begin
          output_string oc line;
          output_char oc '\n';
          flush oc;
          (match In_channel.input_line ic with
          | Some resp ->
            print_string resp;
            print_newline ();
            flush stdout;
            loop ()
          | None ->
            Printf.eprintf "ppd connect: server closed the connection\n";
            exit 1)
        end
    in
    loop ();
    (try Unix.close fd with Unix.Unix_error _ -> ())
  in
  Cmd.v
    (Cmd.info "connect"
       ~doc:
         "Connect to a running $(b,ppd serve) daemon and bridge \
          stdin/stdout to it: each input line is sent as one request, \
          each response line is printed back.")
    Term.(const run $ socket_arg $ port_arg)

let main_cmd =
  Cmd.group
    (Cmd.info "ppd" ~version:"1.0.0"
       ~doc:
         "Parallel Program Debugger: flowback analysis with incremental \
          tracing (Miller & Choi, PLDI 1988).")
    [
      parse_cmd;
      check_cmd;
      analyze_cmd;
      run_cmd;
      log_cmd;
      verify_log_cmd;
      fsck_cmd;
      flowback_cmd;
      replay_cmd;
      race_cmd;
      proto_cmd;
      lint_cmd;
      deadlock_cmd;
      restore_cmd;
      whatif_cmd;
      debug_cmd;
      serve_cmd;
      connect_cmd;
      examples_cmd;
      example_cmd;
      profile_cmd;
    ]

(* cmdliner group dispatch treats the first positional as a sub-command
   name, so `ppd log prog.mpl` is rewritten to `ppd log run prog.mpl`
   unless a real sub-command was named. *)
let rewrite_log a =
  if
    Array.length a >= 2
    && a.(1) = "log"
    && (Array.length a = 2
       || (a.(2) <> "stats" && a.(2) <> "run" && a.(2) <> "compact"
          && a.(2) <> "repair"))
  then
    Array.concat
      [ Array.sub a 0 2; [| "run" |]; Array.sub a 2 (Array.length a - 2) ]
  else a

(* `ppd profile [-o FILE] [--trace FILE] CMD ARG…` enables collection,
   evaluates the inner command line, then exports — so any command can
   be profiled, not just the ones carrying --profile-out flags. *)
let () =
  let a = Sys.argv in
  if Array.length a >= 2 && a.(1) = "profile" then begin
    let out = ref None and trc = ref None in
    let rec parse_opts i =
      if i >= Array.length a then i
      else
        match a.(i) with
        | ("-o" | "--out") when i + 1 < Array.length a ->
          out := Some a.(i + 1);
          parse_opts (i + 2)
        | "--trace" when i + 1 < Array.length a ->
          trc := Some a.(i + 1);
          parse_opts (i + 2)
        | "--help" ->
          exit (Cmd.eval ~argv:[| a.(0); "profile"; "--help" |] main_cmd)
        | _ -> i
    in
    let rest = parse_opts 2 in
    if rest >= Array.length a then begin
      prerr_endline profile_usage;
      exit 124
    end;
    if !out = None && !trc = None then out := Some "-";
    Obs.enable ();
    let inner =
      rewrite_log
        (Array.append [| a.(0) |] (Array.sub a rest (Array.length a - rest)))
    in
    let code = Cmd.eval ~argv:inner main_cmd in
    (match !out with
    | Some "-" -> print_string (Obs.to_json ())
    | Some path ->
      Obs.write_json path;
      Printf.printf "profile written to %s\n" path
    | None -> ());
    (match !trc with
    | Some path ->
      Obs.write_chrome_trace path;
      Printf.printf "trace written to %s\n" path
    | None -> ());
    exit code
  end
  else exit (Cmd.eval ~argv:(rewrite_log a) main_cmd)
