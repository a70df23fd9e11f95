(* The durable segmented store (v2): wire round-trips, crash recovery,
   corruption detection, and demand-paged flowback equivalence. *)

module L = Trace.Log
module S = Store.Segment
module DG = Ppd.Dyn_graph


let run_log ?sched src =
  let eb, _h, log, _tr, _m = Util.run_instrumented ?sched src in
  (eb, log)

let with_tmp f =
  let path = Filename.temp_file "ppd_store" ".log" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

(* Structural equality is a faithful oracle for Log.t: the type is pure
   data (ints, strings, arrays, no closures or cycles). *)
let check_log_equal name (a : L.t) (b : L.t) =
  Alcotest.(check bool) name true (a = b)

(* -------------------------------------------------------------- *)
(* Round trips *)

let roundtrip_prop =
  Util.qtest ~count:25 "random parallel programs: decode (encode log) = log"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1000))
    (fun (seed, sseed) ->
      let _eb, log =
        run_log
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Sometimes seed)
      in
      with_tmp (fun path ->
          S.save path log;
          let log' = S.load path in
          let r = S.verify path in
          log' = log && r.S.vr_version = 2 && r.S.vr_indexed
          && r.S.vr_damage = []
          && r.S.vr_records = L.entry_count log))

let test_fixed_corpus_roundtrip () =
  List.iter
    (fun (name, src) ->
      let _eb, log = run_log src in
      with_tmp (fun path ->
          S.save path log;
          check_log_equal name log (S.load path);
          let r = S.verify path in
          Alcotest.(check bool) (name ^ " clean") true (r.S.vr_damage = []);
          Alcotest.(check int)
            (name ^ " measured size")
            r.S.vr_bytes
            (S.encoded_size log)))
    Workloads.all_fixed

let test_streamed_equals_memory () =
  (* the sink writes entries in execution-interleaved order; the decoded
     log must still equal the one built in memory by the logger *)
  let prog = Lang.Compile.compile Workloads.fig61 in
  let eb = Analysis.Eblock.analyze prog in
  with_tmp (fun path ->
      let w = S.Writer.to_file path in
      let logger = Trace.Logger.create ~sink:(S.Writer.sink w) eb in
      let m =
        Runtime.Machine.create ~hooks:(Trace.Logger.factory logger) prog
      in
      ignore (Runtime.Machine.run m);
      let log = Trace.Logger.finish logger in
      S.Writer.close w;
      check_log_equal "streamed file decodes to the in-memory log" log
        (S.load path);
      let r = S.verify path in
      Alcotest.(check bool) "index intact" true r.S.vr_indexed;
      Alcotest.(check bool) "no damage" true (r.S.vr_damage = []))

let test_v1_still_readable () =
  let _eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      Trace.Log_io.save path log;
      check_log_equal "v1 file loads through the store" log (S.load path);
      let r = S.verify path in
      Alcotest.(check int) "reported as v1" 1 r.S.vr_version;
      Alcotest.(check bool) "v1 verifies clean" true (r.S.vr_damage = []))

let test_measure_matches_disk () =
  (* satellite: Log_io.measure must report the exact on-disk byte count *)
  let _eb, log = run_log (Workloads.counter ~workers:2 ~incs:5 ~mutex:true) in
  with_tmp (fun path ->
      Trace.Log_io.save path log;
      let size =
        In_channel.with_open_bin path (fun ic ->
            Int64.to_int (In_channel.length ic))
      in
      Alcotest.(check int) "measure = v1 file size" size
        (Trace.Log_io.measure log))

(* -------------------------------------------------------------- *)
(* Crash recovery *)

(* [b] holds, per pid, a prefix of [a]'s entries, equal element-wise.
   A salvage that recovers no record for the highest pids cannot know
   they existed, so [b] may have fewer processes than [a] — but never
   more, and never an entry that differs from the original. *)
let is_prefix_log (a : L.t) (b : L.t) =
  b.L.nprocs <= a.L.nprocs
  && Array.length b.L.entries = b.L.nprocs
  && (let ok = ref true in
      for pid = 0 to b.L.nprocs - 1 do
        let ea = a.L.entries.(pid) and eb = b.L.entries.(pid) in
        if Array.length eb > Array.length ea then ok := false
        else
          Array.iteri (fun i y -> if ea.(i) <> y then ok := false) eb
      done;
      !ok)

let test_truncation_salvage () =
  let _eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      let n = String.length full in
      (* every cut point: the salvaged log is always a per-pid prefix,
         and cutting only the trailer/footer loses no record at all *)
      let cut len =
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc (String.sub full 0 len))
      in
      for len = 8 to n - 1 do
        cut len;
        let r = S.verify path in
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d detected" len)
          true (r.S.vr_damage <> []);
        let salvaged = S.load path in
        Alcotest.(check bool)
          (Printf.sprintf "cut at %d salvages a prefix" len)
          true (is_prefix_log log salvaged)
      done;
      (* a cut that only destroys the trailer still recovers everything *)
      cut (n - 10);
      check_log_equal "footer-only damage loses no entry" log (S.load path);
      (* cutting into the magic makes the file unreadable, not garbage *)
      cut 5;
      (match S.load path with
      | exception Trace.Log_io.Unreadable _ -> ()
      | _ -> Alcotest.fail "expected Unreadable on a 5-byte file"))

let test_byte_flip_always_detected () =
  (* flip every single byte of the file in turn: verify must flag each
     corruption (or refuse the file outright), and load must never
     silently mis-decode — it either refuses or salvages a valid
     prefix. *)
  let _eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "file size = encoded_size"
        (S.encoded_size log)
        (String.length full);
      for i = 0 to String.length full - 1 do
        let b = Bytes.of_string full in
        Bytes.set b i (Char.chr (Char.code full.[i] lxor 0xFF));
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_bytes oc b);
        (match S.verify path with
        | exception Trace.Log_io.Unreadable _ -> ()
        | r ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d detected" i)
            true
            (r.S.vr_damage <> []));
        match S.load path with
        | exception Trace.Log_io.Unreadable _ -> ()
        | salvaged ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d never mis-decodes" i)
            true (is_prefix_log log salvaged)
      done)

(* -------------------------------------------------------------- *)
(* Demand-paged debugging *)

(* Drive the same flowback session against a controller and digest
   everything observable: per-process roots, the slices hanging off
   them, and the final graph. Two controllers over the same execution
   must produce byte-identical digests. *)
let drive ctl ~nprocs =
  let buf = Buffer.create 1024 in
  let g = Ppd.Controller.graph ctl in
  for pid = 0 to nprocs - 1 do
    match Ppd.Controller.last_event_node ctl ~pid with
    | None -> Buffer.add_string buf (Printf.sprintf "p%d: no root\n" pid)
    | Some root ->
      Buffer.add_string buf (Printf.sprintf "p%d root %d\n" pid root);
      List.iter
        (fun (d : Ppd.Flowback.dep) ->
          let nd = DG.node g d.Ppd.Flowback.d_node in
          Buffer.add_string buf
            (Printf.sprintf "  %d p%d [%s] %s\n" d.Ppd.Flowback.d_node
               nd.DG.nd_pid nd.DG.nd_label
               (match nd.DG.nd_value with
               | None -> "-"
               | Some v -> Format.asprintf "%a" Runtime.Value.pp v)))
        (Ppd.Flowback.backward_slice ctl root)
  done;
  for i = 0 to DG.nnodes g - 1 do
    let nd = DG.node g i in
    Buffer.add_string buf
      (Printf.sprintf "node %d p%d [%s]\n" i nd.DG.nd_pid nd.DG.nd_label)
  done;
  let st = Ppd.Controller.stats ctl in
  Buffer.add_string buf
    (Printf.sprintf "replays=%d intervals=%d\n" st.Ppd.Controller.replays
       st.Ppd.Controller.intervals_total);
  Buffer.contents buf

let paged_corpus =
  [
    ("fig41", Workloads.fig41);
    ("fig61", Workloads.fig61);
    ("buggy_min", Workloads.buggy_min);
    ("racy_bank", Workloads.racy_bank);
    ("rpc", Workloads.rpc);
    ("deep_calls", Workloads.deep_calls ~depth:4);
    ("counter", Workloads.counter ~workers:2 ~incs:4 ~mutex:true);
    ("prodcons", Workloads.producer_consumer ~items:4 ~cap:2);
    ("ring", Workloads.token_ring ~procs:3 ~rounds:2);
    ("branchy", Workloads.branchy ~rounds:5);
    ("fib", Workloads.fib 6);
  ]

let test_paged_equals_memory () =
  List.iter
    (fun (name, src) ->
      let eb, log = run_log src in
      with_tmp (fun path ->
          S.save path log;
          let reader = S.open_file path in
          Alcotest.(check bool) (name ^ " paged") true (S.is_indexed reader);
          (* the footer interval tables must equal what Log.intervals
             computes from the decoded records *)
          let ctl_mem = Ppd.Controller.start eb log in
          let ctl_paged = Ppd.Controller.start_paged eb reader in
          for pid = 0 to log.L.nprocs - 1 do
            Alcotest.(check bool)
              (Printf.sprintf "%s p%d intervals equal" name pid)
              true
              (Ppd.Controller.intervals ctl_mem ~pid
              = Ppd.Controller.intervals ctl_paged ~pid)
          done;
          let mem = drive ctl_mem ~nprocs:log.L.nprocs in
          let paged = drive ctl_paged ~nprocs:log.L.nprocs in
          Alcotest.(check string) (name ^ " flowback identical") mem paged))
    paged_corpus

let paged_prop =
  Util.qtest ~count:15 "random programs: paged flowback = in-memory"
    QCheck2.Gen.(pair (int_range 0 100_000) (int_range 0 1000))
    (fun (seed, sseed) ->
      let eb, log =
        run_log
          ~sched:(Runtime.Sched.Random_seed sseed)
          (Gen.parallel ~protect:`Always seed)
      in
      with_tmp (fun path ->
          S.save path log;
          let ctl_mem = Ppd.Controller.start eb log in
          let ctl_paged = Ppd.Controller.start_paged eb (S.open_file path) in
          drive ctl_mem ~nprocs:log.L.nprocs
          = drive ctl_paged ~nprocs:log.L.nprocs))

(* Workers call a small e-block every round and update shared state
   under a lock, so each worker's log spans several pages and holds a
   hundred intervals; main ends in a failing assert, which leaves its
   root interval open. *)
let ledger =
  {|
shared int hist[16];
shared int total = 0;
sem lock = 1;

func mix(x, r) {
  var h = x * 31 + r * 17 + 7;
  h = h - (h / 16) * 16;
  return h;
}

func worker(w, n) {
  var i = 0;
  var acc = w;
  for (i = 0; i < n; i = i + 1) {
    var k = mix(acc, i);
    acc = acc + k;
    P(lock);
    hist[k] = hist[k] + 1;
    total = total + k;
    V(lock);
  }
}

func main() {
  var a = spawn worker(1, 100);
  var b = spawn worker(2, 100);
  var c = spawn worker(3, 100);
  join(a);
  join(b);
  join(c);
  assert(total == 0);
}
|}

(* Replay over a paged window (just the pages an interval touches, at
   an entry offset) equals replay over the whole decoded log, for every
   interval: those inside one page, those straddling a page boundary,
   and the open last interval. *)
let test_offset_windows () =
  let eb, log = run_log ledger in
  with_tmp (fun path ->
      S.save path log;
      let r = S.open_file path in
      let whole = S.to_log r in
      let stmt_fid sid = eb.Analysis.Eblock.prog.Lang.Prog.stmt_fid.(sid) in
      (* the page holding entry [i]: a one-entry window is exactly it *)
      let page ~pid i =
        let w = S.window r ~pid ~lo:i ~hi:i in
        (w.L.base.(pid), Array.length w.L.entries.(pid))
      in
      let straddling = ref 0 and partial = ref 0 and still_open = ref 0 in
      for pid = 0 to S.nprocs r - 1 do
        let count = S.pid_entry_count r ~pid in
        Array.iter
          (fun (iv : L.interval) ->
            let lo = iv.L.iv_prelog - 1 in
            let hi =
              match iv.L.iv_postlog with Some p -> p | None -> count - 1
            in
            let w = S.window r ~pid ~lo ~hi in
            let name = Printf.sprintf "p%d#%d" pid iv.L.iv_id in
            let first, _ = page ~pid (max 0 lo) in
            let last, last_len = page ~pid hi in
            if first <> last then incr straddling;
            if Array.length w.L.entries.(pid) < count then incr partial;
            Alcotest.(check (pair int int))
              (name ^ " window is exactly the covering pages")
              (first, last + last_len - first)
              (w.L.base.(pid), Array.length w.L.entries.(pid));
            if iv.L.iv_postlog = None then incr still_open;
            let a = Ppd.Emulator.replay eb w ~interval:iv in
            let b = Ppd.Emulator.replay eb whole ~interval:iv in
            Alcotest.(check bool)
              (name ^ " same events") true
              (a.Ppd.Emulator.events = b.Ppd.Emulator.events);
            Alcotest.(check int)
              (name ^ " same steps") b.Ppd.Emulator.steps a.Ppd.Emulator.steps;
            Alcotest.(check string)
              (name ^ " same output") b.Ppd.Emulator.output
              a.Ppd.Emulator.output;
            Alcotest.(check (list string))
              (name ^ " same postlog mismatches")
              b.Ppd.Emulator.postlog_mismatches
              a.Ppd.Emulator.postlog_mismatches)
          (S.intervals r ~stmt_fid ~pid)
      done;
      Alcotest.(check bool) "some interval straddles pages" true
        (!straddling > 0);
      Alcotest.(check bool) "some window is shorter than its process's log"
        true (!partial > 0);
      Alcotest.(check bool) "an interval is still open" true (!still_open > 0))

let test_salvaged_reader_still_debugs () =
  (* cut the file mid-record: the salvaged intervals that survived must
     still replay and answer queries *)
  let eb, log = run_log Workloads.fig61 in
  with_tmp (fun path ->
      S.save path log;
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full * 2 / 3)));
      let reader = S.open_file path in
      Alcotest.(check bool) "salvage path" true (not (S.is_indexed reader));
      Alcotest.(check bool) "damage reported" true (S.damage reader <> []);
      let ctl = Ppd.Controller.start_paged eb reader in
      (* every surviving interval builds without raising *)
      for pid = 0 to S.nprocs reader - 1 do
        let ivs = Ppd.Controller.intervals ctl ~pid in
        Array.iteri
          (fun iv_id _ ->
            ignore (Ppd.Controller.build_interval ctl ~pid ~iv_id))
          ivs
      done;
      Alcotest.(check bool) "graph non-empty" true
        (DG.nnodes (Ppd.Controller.graph ctl) > 0))

let suite =
  ( "store",
    [
      roundtrip_prop;
      Alcotest.test_case "fixed corpus round trip" `Quick
        test_fixed_corpus_roundtrip;
      Alcotest.test_case "streamed sink = in-memory log" `Quick
        test_streamed_equals_memory;
      Alcotest.test_case "v1 readable through the store" `Quick
        test_v1_still_readable;
      Alcotest.test_case "measure matches disk size" `Quick
        test_measure_matches_disk;
      Alcotest.test_case "truncation salvages longest prefix" `Quick
        test_truncation_salvage;
      Alcotest.test_case "every byte flip detected" `Quick
        test_byte_flip_always_detected;
      Alcotest.test_case "paged flowback = in-memory (corpus)" `Quick
        test_paged_equals_memory;
      paged_prop;
      Alcotest.test_case "offset windows replay like the whole log" `Quick
        test_offset_windows;
      Alcotest.test_case "salvaged file still debugs" `Quick
        test_salvaged_reader_still_debugs;
    ] )
