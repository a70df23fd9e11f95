(* The fault-injection substrate (lib/fault) and the degraded-mode
   debugging built on it: crash-at-byte log sinks, torn and flipped
   pages, transient pool failures with bounded retry, the replay
   watchdog, and the explicit holes damaged history leaves in the
   dynamic graph. *)

module L = Trace.Log
module S = Store.Segment
module C = Ppd.Controller

let with_faults ?seed spec f =
  match Fault.arm ?seed spec with
  | Error e -> Alcotest.failf "arm %S failed unexpectedly: %s" spec e
  | Ok () -> Fun.protect ~finally:Fault.disarm f

let with_tmp f =
  let path = Filename.temp_file "ppd_fault" ".log" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let logged src =
  let prog = Lang.Compile.compile src in
  let eb = Analysis.Eblock.analyze prog in
  let _, log, _ = Trace.Logger.run_logged eb in
  (eb, log)

(* Stream an instrumented run of [src] into a segment writer at [path],
   with whatever fault plan is armed; returns the in-memory log and the
   writer's cause of death (if any). *)
let stream_to ~path src =
  let prog = Lang.Compile.compile src in
  let eb = Analysis.Eblock.analyze prog in
  let w = S.Writer.to_file path in
  let logger = Trace.Logger.create ~sink:(S.Writer.sink w) eb in
  let m = Runtime.Machine.create ~hooks:(Trace.Logger.factory logger) prog in
  ignore (Runtime.Machine.run m);
  let log = Trace.Logger.finish logger in
  S.Writer.close w;
  (log, S.Writer.failure w)

(* -------------------------------------------------------------- *)
(* Spec parsing and firing semantics *)

let test_spec_parsing () =
  let ok s = match Fault.arm s with Ok () -> Fault.disarm () | Error e ->
    Alcotest.failf "spec %S rejected: %s" s e
  in
  let err s =
    match Fault.arm s with
    | Error _ -> Alcotest.(check bool) "stays disarmed" false (Fault.armed ())
    | Ok () ->
      Fault.disarm ();
      Alcotest.failf "spec %S accepted" s
  in
  ok "trace.sink:100";
  ok "store.segment.write:2:flip";
  ok "a:1, b:2:torn ,c:3";
  ok "exec.pool.task:1:transient";
  err "";
  err "trace.sink";
  err "trace.sink:x";
  err "trace.sink:-1";
  err "trace.sink:1:frobnicate";
  err "a:1,b";
  (* all-or-nothing: one bad entry arms nothing *)
  err "trace.sink:100,bad"

let test_fire_once_at_nth_arrival () =
  let s = Fault.site "test.point" in
  Alcotest.(check bool) "disarmed fires nothing" true (Fault.fire s = None);
  with_faults "test.point:3" (fun () ->
      let hits =
        List.init 6 (fun _ ->
            match Fault.fire s with Some _ -> 1 | None -> 0)
      in
      Alcotest.(check (list int)) "only the 3rd arrival" [ 0; 0; 1; 0; 0; 0 ]
        hits;
      Alcotest.(check int) "fired count" 1 (Fault.fired_count ()));
  (* re-arming resets arrivals: the same spec fires again *)
  with_faults "test.point:3" (fun () ->
      ignore (Fault.fire s);
      ignore (Fault.fire s);
      Alcotest.(check bool) "3rd arrival after re-arm" true
        (Fault.fire s <> None))

let test_fire_at_threshold () =
  let s = Fault.site "test.bytes" in
  with_faults "test.bytes:100:crash" (fun () ->
      Alcotest.(check bool) "below threshold" true
        (Fault.fire_at s ~pos:99 = None);
      (match Fault.fire_at s ~pos:130 with
      | Some (Fault.Crash, 100) -> ()
      | _ -> Alcotest.fail "crossing pos fires with the exact threshold");
      Alcotest.(check bool) "fires only once" true
        (Fault.fire_at s ~pos:200 = None))

let test_mix_deterministic () =
  let s = Fault.site "test.mix" in
  with_faults ~seed:7 "test.mix:1" (fun () ->
      let a = Fault.mix s 42 in
      Alcotest.(check int) "same seed, same salt" a (Fault.mix s 42);
      Alcotest.(check bool) "salt matters" true (a <> Fault.mix s 43);
      Alcotest.(check bool) "non-negative" true (a >= 0))

(* -------------------------------------------------------------- *)
(* Store faults: the durable prefix always survives *)

let test_sink_crash_leaves_durable_prefix () =
  (* crash the sink at byte 120: exactly 120 bytes reach disk, fsck
     reports the damage, and the salvage recovers intact records only *)
  let log, failure =
    with_tmp (fun path ->
        let r =
          with_faults "trace.sink:120" (fun () ->
              stream_to ~path Workloads.fig61)
        in
        let size =
          In_channel.with_open_bin path (fun ic ->
              Int64.to_int (In_channel.length ic))
        in
        Alcotest.(check int) "exactly 120 bytes on disk" 120 size;
        let rp = S.fsck path in
        Alcotest.(check bool) "fsck flags the damage" false rp.S.fk_clean;
        (* the salvaged log is a per-pid prefix of the real one *)
        let salvaged = S.load path in
        Alcotest.(check bool) "salvage returns a prefix" true
          (salvaged.L.nprocs <= (fst r).L.nprocs);
        r)
  in
  (match failure with
  | Some reason ->
    Alcotest.(check bool) "death names the byte" true
      (Util.contains ~sub:"120" reason)
  | None -> Alcotest.fail "writer must report its injected death");
  Alcotest.(check bool) "in-memory log unaffected" true (L.entry_count log > 0)

let test_flip_detected_by_fsck () =
  with_tmp (fun path ->
      let _log, failure =
        with_faults ~seed:3 "store.segment.write:2:flip" (fun () ->
            stream_to ~path Workloads.fig61)
      in
      Alcotest.(check bool) "flip is not fatal to the writer" true
        (failure = None);
      let rp = S.fsck path in
      Alcotest.(check bool) "fsck finds the corrupt page" false rp.S.fk_clean;
      Alcotest.(check bool) "a page row carries the error" true
        (List.exists (fun p -> p.S.fp_error <> None) rp.S.fk_pages))

let test_enospc_and_torn_recoverable () =
  List.iter
    (fun kind ->
      with_tmp (fun path ->
          let _log, _failure =
            with_faults
              (Printf.sprintf "store.segment.write:2:%s" kind)
              (fun () -> stream_to ~path Workloads.fig61)
          in
          (* damage or not, the file must stay loadable (salvage) and
             fsck must terminate with a report *)
          let rp = S.fsck path in
          ignore (S.load path);
          Alcotest.(check bool)
            (kind ^ " keeps a parsable prefix")
            true
            (rp.S.fk_records >= 0)))
    [ "torn"; "short"; "enospc" ]

let test_fsck_clean_run () =
  with_tmp (fun path ->
      let log, failure = stream_to ~path Workloads.fig61 in
      Alcotest.(check bool) "no injected death" true (failure = None);
      let rp = S.fsck path in
      Alcotest.(check bool) "clean" true rp.S.fk_clean;
      Alcotest.(check bool) "indexed" true rp.S.fk_indexed;
      Alcotest.(check int) "every record accounted for"
        (L.entry_count log) rp.S.fk_records;
      Alcotest.(check bool) "no page errors" true
        (List.for_all (fun p -> p.S.fp_error = None) rp.S.fk_pages))

(* fsck checks every indexed page, not just the prefix: corrupt a page
   in the middle of the file without touching the footer and it is
   still pinpointed, with its offset *)
let test_fsck_finds_mid_file_damage () =
  let _eb, log = logged Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let rp = S.fsck path in
      let victim =
        match rp.S.fk_pages with
        | _ :: p :: _ -> p
        | [ p ] -> p
        | [] -> Alcotest.fail "no pages"
      in
      let full = In_channel.with_open_bin path In_channel.input_all in
      let b = Bytes.of_string full in
      (* flip one payload byte inside the victim frame (skip the 9-byte
         frame header so the length field stays sane) *)
      let off = victim.S.fp_offset + 12 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
      Util.overwrite path (Bytes.to_string b);
      let rp' = S.fsck path in
      Alcotest.(check bool) "damage found" false rp'.S.fk_clean;
      Alcotest.(check bool) "the victim page is the one flagged" true
        (List.exists
           (fun p ->
             p.S.fp_offset = victim.S.fp_offset && p.S.fp_error <> None)
           rp'.S.fk_pages))

(* -------------------------------------------------------------- *)
(* Degraded-mode controller: holes, retries, watchdog *)

let degraded = { C.default_config with degraded = true }

let test_transient_pool_fault_retried () =
  (* a transient failure in a pooled replay is retried serially and the
     -j4 graph stays byte-identical to the clean -j1 one *)
  let eb, log = logged Workloads.fig61 in
  let all_keys ctl =
    List.concat
      (List.init log.L.nprocs (fun pid ->
           List.init
             (Array.length (C.intervals ctl ~pid))
             (fun iv_id -> (pid, iv_id))))
  in
  let dump ctl = Format.asprintf "%a" Ppd.Dyn_graph.pp (C.graph ctl) in
  let serial = C.start eb log in
  C.build_intervals_par serial (all_keys serial);
  let clean = dump serial in
  with_faults "exec.pool.task:1" (fun () ->
      Exec.Pool.with_pool ~jobs:4 (fun pool ->
          let ctl = C.start ~pool eb log in
          C.build_intervals_par ctl (all_keys ctl);
          Alcotest.(check string) "graph identical under transient fault"
            clean (dump ctl);
          Alcotest.(check bool) "the retry was counted" true
            ((C.stats ctl).C.retried > 0);
          Alcotest.(check int) "no holes" 0 (C.stats ctl).C.holes))

let test_exhausted_retries_become_hole () =
  (* more transient failures than the retry budget: degraded mode
     declares a hole instead of propagating Fault.Injected *)
  let eb, log = logged Workloads.fig61 in
  with_faults "ppd.emulator.replay:1:transient,ppd.emulator.replay:2:transient,ppd.emulator.replay:3:transient"
    (fun () ->
      (* serial replays hit the emulator site every attempt: first
         build + 0 retries with retries = 0 *)
      let ctl =
        C.start ~config:{ degraded with C.retries = 0 } eb log
      in
      (* the budget fault clamps the replay; with degraded on we get a
         hole, not an exception *)
      ignore (C.build_interval ctl ~pid:0 ~iv_id:0);
      let holes = C.holes ctl in
      Alcotest.(check int) "one hole" 1 (List.length holes);
      let h = List.hd holes in
      Alcotest.(check int) "hole names the process" 0 h.C.h_pid;
      Alcotest.(check bool) "hole spans steps" true (h.C.h_seq_hi >= h.C.h_seq_lo))

let test_watchdog_raises_ppd060 () =
  let eb, log = logged Workloads.fig61 in
  let tight = { C.default_config with C.max_replay_steps = 1 } in
  let ctl = C.start ~config:tight eb log in
  (match C.build_interval ctl ~pid:0 ~iv_id:0 with
  | _ -> Alcotest.fail "expected Replay_overrun"
  | exception C.Replay_overrun { pid; iv_id; budget } ->
    Alcotest.(check int) "pid" 0 pid;
    Alcotest.(check int) "iv" 0 iv_id;
    Alcotest.(check int) "budget" 1 budget);
  (* same budget, degraded: a hole, and the query completes *)
  let ctl' = C.start ~config:{ tight with C.degraded = true } eb log in
  ignore (C.build_interval ctl' ~pid:0 ~iv_id:0);
  Alcotest.(check int) "hole declared" 1 (C.stats ctl').C.holes;
  Alcotest.(check bool) "reason mentions the budget" true
    (List.exists
       (fun h -> Util.contains ~sub:"budget" h.C.h_reason)
       (C.holes ctl'))

let test_damaged_page_is_hole_not_crash () =
  (* degraded paged flowback over an injected read fault: the query
     answers, with the damage spelled out *)
  let eb, log = logged Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      with_faults "store.segment.read:1" (fun () ->
          let ctl = C.start_paged ~config:degraded eb (S.open_file path) in
          (* build everything; the faulted page becomes holes, the rest
             assembles *)
          for pid = 0 to log.L.nprocs - 1 do
            Array.iteri
              (fun iv_id _ -> ignore (C.build_interval ctl ~pid ~iv_id))
              (C.intervals ctl ~pid)
          done;
          let holes = C.holes ctl in
          Alcotest.(check bool) "at least one hole" true (holes <> []);
          List.iter
            (fun h ->
              Alcotest.(check bool) "reason says damaged" true
                (Util.contains ~sub:"damaged" h.C.h_reason))
            holes;
          Alcotest.(check bool) "other intervals still built" true
            ((C.stats ctl).C.replays > 0);
          (* the hole lines render *)
          let txt =
            Format.asprintf "%t" (fun ppf -> Ppd.Flowback.pp_holes ctl ppf)
          in
          Alcotest.(check bool) "pp_holes mentions history" true
            (Util.contains ~sub:"history unavailable" txt)))

(* The acceptance sweep, library edition: truncate a saved v2 log at
   every byte offset; fsck always terminates with a report (or a clean
   PPD050 refusal), and a degraded paged debug pass over the remains
   never raises. *)
let test_truncation_sweep_degraded_debug () =
  let eb, log = logged Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      for len = 0 to String.length full - 1 do
        Util.overwrite path (String.sub full 0 len);
        (match S.fsck path with
        | rp -> Alcotest.(check bool) "truncation is never clean" false
                  rp.S.fk_clean
        | exception S.Unreadable _ -> ());
        match S.open_file path with
        | exception S.Unreadable _ -> ()
        | r ->
          let ctl = C.start_paged ~config:degraded eb r in
          for pid = 0 to S.nprocs r - 1 do
            match C.last_event_node ctl ~pid with
            | None -> ()
            | Some root -> ignore (Ppd.Flowback.backward_slice ctl root)
          done
      done)

(* -------------------------------------------------------------- *)
(* Satellite: any v1 input is refused with PPD050 *)

(* The v1 format is retired: a file with the v1 magic, whatever
   follows it, and a truncated magic are both unreadable, and the one
   query failure map turns that into PPD050 (exit 6), never an escaping
   exception. *)
let expect_ppd050 name path =
  match Serve.Query.guard (fun () -> S.open_file path) with
  | Ok _ -> Alcotest.failf "%s: expected PPD050" name
  | Error d ->
    Alcotest.(check string) (name ^ " code") "PPD050" d.Lang.Diag.d_code;
    Alcotest.(check (option int))
      (name ^ " exit status") (Some 6)
      (List.assoc_opt d.Lang.Diag.d_code Serve.Query.exit_table)

let test_v1_garbage_is_ppd050 () =
  with_tmp (fun path ->
      Util.overwrite path
        ("PPDLOG1\n" ^ String.init 64 (fun i -> Char.chr (i * 7 mod 256)));
      expect_ppd050 "garbage after v1 magic" path;
      Util.overwrite path "PPDL";
      expect_ppd050 "truncated magic" path;
      Util.overwrite path "PPDLOG1\n";
      expect_ppd050 "v1 magic, empty body" path)

let suite =
  ( "fault",
    [
      Alcotest.test_case "spec parsing" `Quick test_spec_parsing;
      Alcotest.test_case "fires once at the Nth arrival" `Quick
        test_fire_once_at_nth_arrival;
      Alcotest.test_case "byte-positioned firing" `Quick test_fire_at_threshold;
      Alcotest.test_case "seeded mix is deterministic" `Quick
        test_mix_deterministic;
      Alcotest.test_case "sink crash leaves the durable prefix" `Quick
        test_sink_crash_leaves_durable_prefix;
      Alcotest.test_case "bit flip detected by fsck" `Quick
        test_flip_detected_by_fsck;
      Alcotest.test_case "torn/short/enospc stay recoverable" `Quick
        test_enospc_and_torn_recoverable;
      Alcotest.test_case "fsck on a clean file" `Quick test_fsck_clean_run;
      Alcotest.test_case "fsck pinpoints mid-file damage" `Quick
        test_fsck_finds_mid_file_damage;
      Alcotest.test_case "transient pool fault retried, graph identical"
        `Quick test_transient_pool_fault_retried;
      Alcotest.test_case "exhausted retries become a hole" `Quick
        test_exhausted_retries_become_hole;
      Alcotest.test_case "replay watchdog: raise vs degrade" `Quick
        test_watchdog_raises_ppd060;
      Alcotest.test_case "damaged page degrades to a hole" `Quick
        test_damaged_page_is_hole_not_crash;
      Alcotest.test_case "every-byte truncation sweep debugs cleanly" `Quick
        test_truncation_sweep_degraded_debug;
      Alcotest.test_case "v1 decode failures all map to PPD050" `Quick
        test_v1_garbage_is_ppd050;
    ] )
