(* Shared helpers for the test suites. *)

let compile = Lang.Compile.compile

(* naive substring test, avoiding extra dependencies *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let compile_err src =
  match Lang.Compile.compile_result src with
  | Ok _ -> None
  | Error (_, msg) -> Some msg

(* Replace a file's contents. Removing it first gives the new bytes
   fresh blocks: truncating in place makes ext4 write the old blocks
   back at close, which dominates loops that rewrite one file hundreds
   of times. *)
let overwrite path contents =
  (try Sys.remove path with Sys_error _ -> ());
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

(* Run a program bare and return (halt, output). *)
let run ?(sched = Runtime.Sched.default) ?(max_steps = 200_000) src =
  let m = Runtime.Machine.create ~sched ~max_steps (compile src) in
  let halt = Runtime.Machine.run m in
  (halt, Runtime.Machine.output m)

let halt_name = function
  | Runtime.Machine.Finished -> "finished"
  | Runtime.Machine.Deadlock _ -> "deadlock"
  | Runtime.Machine.Fault { msg; _ } -> "fault: " ^ msg
  | Runtime.Machine.Breakpoint { sid; _ } ->
    Printf.sprintf "breakpoint at s%d" sid
  | Runtime.Machine.Out_of_fuel -> "out of fuel"

let run_output ?sched src =
  let halt, out = run ?sched src in
  (match halt with
  | Runtime.Machine.Finished -> ()
  | _ -> Alcotest.failf "expected normal completion, got: %s" (halt_name halt));
  out

(* Run with logger + full trace attached. *)
let run_instrumented ?(sched = Runtime.Sched.default) ?(max_steps = 200_000)
    ?policy src =
  let prog = compile src in
  let eb = Analysis.Eblock.analyze ?policy prog in
  let logger = Trace.Logger.create eb in
  let ft = Oracle.Full_trace.create () in
  let hooks =
    Oracle.Hooks.both (Trace.Logger.factory logger) (Oracle.Full_trace.factory ft)
  in
  let m = Runtime.Machine.create ~sched ~max_steps ~hooks prog in
  let halt = Runtime.Machine.run m in
  (eb, halt, Trace.Logger.finish logger, Oracle.Full_trace.finish ft, m)

let event_str ev = Format.asprintf "%a" Runtime.Event.pp ev

(* Replay equivalence modulo prelog minimality: a parameter that is
   never read before being overwritten is (correctly) absent from the
   prelog, so the replayed E_enter/E_proc_start binds show [Vundef]
   where the original had the dead value. Everything else must match
   exactly. *)
let binds_equiv orig replay =
  List.length orig = List.length replay
  && List.for_all2
       (fun ((v : Lang.Prog.var), vo) ((v' : Lang.Prog.var), vr) ->
         v.vid = v'.vid
         && (vr = Runtime.Value.Vundef || Runtime.Value.equal vo vr))
       orig replay

let event_equiv orig replay =
  match (orig, replay) with
  | ( Runtime.Event.E_enter { fid = f1; call_sid = c1; binds = b1 },
      Runtime.Event.E_enter { fid = f2; call_sid = c2; binds = b2 } ) ->
    f1 = f2 && c1 = c2 && binds_equiv b1 b2
  | ( Runtime.Event.E_proc_start { fid = f1; spawn = s1; binds = b1 },
      Runtime.Event.E_proc_start { fid = f2; spawn = s2; binds = b2 } ) ->
    f1 = f2 && s1 = s2 && binds_equiv b1 b2
  | ( Runtime.Event.E_loop_exit { sid = s1; _ },
      Runtime.Event.E_loop_exit { sid = s2; writes } ) ->
    (* the emulator marks skipped loop e-blocks with their postlog
       writes; the original machine event has no payload *)
    s1 = s2 && (writes = None || writes <> None)
  | o, r -> String.equal (event_str o) (event_str r)

(* The replay-equivalence oracle: for every interval of every process,
   the emulated event stream must equal the full trace restricted to the
   interval's seq range minus nested child intervals. Returns the number
   of intervals checked. *)
let check_replay_equivalence ?(expect_mismatch = false) eb log tr =
  let checked = ref 0 in
  (try
     for pid = 0 to log.Trace.Log.nprocs - 1 do
       let ivs = Trace.Log.intervals log ~pid in
       Array.iter
         (fun (iv : Trace.Log.interval) ->
           incr checked;
           let o = Ppd.Emulator.replay eb log ~interval:iv in
           (match o.Ppd.Emulator.fault with
           | Some f when iv.iv_seq_end <> None ->
             Alcotest.failf "replay of closed interval faulted: %s" f
           | _ -> ());
           if o.Ppd.Emulator.postlog_mismatches <> [] then
             Alcotest.failf "postlog mismatch: %s"
               (String.concat "; " o.Ppd.Emulator.postlog_mismatches);
           let nested =
             List.map (fun k -> ivs.(k)) iv.Trace.Log.iv_children
           in
           let in_nested seq =
             List.exists
               (fun (c : Trace.Log.interval) ->
                 seq >= c.iv_seq_start
                 &&
                 match c.iv_seq_end with
                 | Some e -> seq < e
                 | None -> true)
               nested
           in
           let expected =
             Array.to_list tr.Oracle.Full_trace.recs
             |> List.filter_map (fun (r : Oracle.Full_trace.rec_) ->
                    if
                      r.tr_pid = pid
                      && r.tr_seq >= iv.iv_seq_start
                      && (match iv.iv_seq_end with
                         | Some e -> r.tr_seq < e
                         | None -> true)
                      && not (in_nested r.tr_seq)
                    then Some (r.tr_seq, r.tr_ev)
                    else None)
           in
           let got = o.Ppd.Emulator.events in
           let matches =
             List.length expected = List.length got
             && List.for_all2
                  (fun (s1, e1) (s2, e2) -> s1 = s2 && event_equiv e1 e2)
                  expected got
           in
           if not matches then begin
             let pp_side l =
               String.concat "\n"
                 (List.map
                    (fun (s, e) -> Printf.sprintf "  %d: %s" s (event_str e))
                    l)
             in
             Alcotest.failf
               "replay divergence in p%d interval %d (fid %d)\nexpected:\n%s\ngot:\n%s"
               pid iv.iv_id iv.iv_fid (pp_side expected) (pp_side got)
           end)
         ivs
     done
   with
  | Ppd.Emulator.Replay_mismatch m when expect_mismatch ->
    raise (Ppd.Emulator.Replay_mismatch m));
  !checked

(* A qcheck property as an alcotest case. With [print], a failure shows
   the counterexample, not just that there was one. *)
let qtest ?(count = 50) ?print name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ?print ~name gen prop)

let protect_name = function
  | `Always -> "`Always"
  | `Sometimes -> "`Sometimes"
  | `Never -> "`Never"

(* A [Gen.parallel] instance as a counterexample: its seed, protection
   and scheduler, any further generated parameters ([extra]), and the
   program source the property ran. *)
let show_instance ?(extra = []) ~seed ~protect ~sched src =
  Printf.sprintf "Gen.parallel ~protect:%s %d, scheduler %s%s\n%s"
    (protect_name protect) seed
    (Runtime.Sched.string_of_policy sched)
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf ", %s %s" k v) extra))
    src
