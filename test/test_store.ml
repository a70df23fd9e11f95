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
          log' = log && r.S.vr_indexed
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

(* A process that logged nothing (spawned, never scheduled) is still a
   process: the footer keeps it even when it is the highest pid. *)
let test_trailing_empty_process () =
  let _eb, log = run_log Workloads.fig61 in
  let log =
    L.content ~nprocs:(log.L.nprocs + 1)
      ~entries:(Array.append log.L.entries [| [||] |])
      ~stops:(Array.append log.L.stops [| 0 |])
  in
  with_tmp (fun path ->
      S.save path log;
      let r = S.open_file path in
      Alcotest.(check int) "nprocs" log.L.nprocs (S.nprocs r);
      Alcotest.(check (array int)) "stops" log.L.stops (S.stops r))

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
      let cut len = Util.overwrite path (String.sub full 0 len) in
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
      | exception S.Unreadable _ -> ()
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
        Util.overwrite path (Bytes.to_string b);
        (match S.verify path with
        | exception S.Unreadable _ -> ()
        | r ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d detected" i)
            true
            (r.S.vr_damage <> []));
        match S.load path with
        | exception S.Unreadable _ -> ()
        | salvaged ->
          Alcotest.(check bool)
            (Printf.sprintf "flip at %d never mis-decodes" i)
            true (is_prefix_log log salvaged)
      done)

(* Repair acts on the page check fsck reports: damage one page at a
   time in a multi-page log, and each process's first dropped page is
   fsck's first bad page of that process, the process keeps exactly
   the records before it, and the rewritten log checks clean. *)
let test_repair_keeps_clean_prefix () =
  let _eb, log = run_log (Workloads.config_pipeline ~workers:2 ~rounds:300) in
  with_tmp (fun path ->
      with_tmp (fun out ->
          S.save path log;
          let full = In_channel.with_open_bin path In_channel.input_all in
          let pages = (S.fsck path).S.fk_pages in
          Alcotest.(check bool) "some process spans several pages" true
            (List.exists (fun p -> p.S.fp_page > 0) pages);
          List.iter
            (fun (victim : S.fsck_page) ->
              (* a payload byte: past the tag and the length varint *)
              let b = Bytes.of_string full in
              let i = victim.S.fp_offset + 4 in
              Bytes.set b i (Char.chr (Char.code full.[i] lxor 0xFF));
              Util.overwrite path (Bytes.to_string b);
              let fk = S.fsck path in
              let rp = S.repair path ~out in
              let repaired = S.load out in
              for pid = 0 to log.L.nprocs - 1 do
                let first_bad =
                  List.find_opt
                    (fun p -> p.S.fp_pid = pid && p.S.fp_error <> None)
                    fk.S.fk_pages
                in
                let first_drop =
                  List.find_opt (fun d -> d.S.rd_pid = pid) rp.S.rp_dropped
                in
                let name what =
                  Printf.sprintf "flip in pid %d page %d: pid %d %s"
                    victim.S.fp_pid victim.S.fp_page pid what
                in
                Alcotest.(check (option (pair int int)))
                  (name "first drop = first bad page")
                  (Option.map (fun p -> (p.S.fp_page, p.S.fp_offset)) first_bad)
                  (Option.map (fun d -> (d.S.rd_page, d.S.rd_offset)) first_drop);
                let kept =
                  match first_bad with
                  | None -> Array.length log.L.entries.(pid)
                  | Some bad ->
                    List.fold_left
                      (fun a p ->
                        if p.S.fp_pid = pid && p.S.fp_page < bad.S.fp_page
                        then a + p.S.fp_count
                        else a)
                      0 fk.S.fk_pages
                in
                (* the rewritten log ends at the last process that kept
                   a record *)
                let got =
                  if pid < repaired.L.nprocs then repaired.L.entries.(pid)
                  else [||]
                in
                Alcotest.(check bool)
                  (name "keeps the records before the bad page")
                  true
                  (got = Array.sub log.L.entries.(pid) 0 kept)
              done;
              Alcotest.(check bool) "the victim is damaged" false fk.S.fk_clean;
              Alcotest.(check bool) "the repaired log checks clean" true
                (S.fsck out).S.fk_clean)
            pages))

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
      Util.overwrite path (String.sub full 0 (String.length full * 2 / 3));
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

(* -------------------------------------------------------------- *)
(* CRC-32 *)

(* One byte at a time, bit by bit: the definition the sliced tables
   must agree with. *)
let crc_reference ~pos ~len s =
  let crc = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    crc := !crc lxor Char.code s.[i];
    for _ = 0 to 7 do
      crc :=
        if !crc land 1 = 1 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
    done
  done;
  !crc lxor 0xFFFFFFFF

let test_crc_check_values () =
  Alcotest.(check int)
    "check value" 0xCBF43926
    (Store.Crc32.digest "123456789");
  Alcotest.(check int) "empty" 0 (Store.Crc32.digest "");
  Alcotest.(check int)
    "slice" 0xCBF43926
    (Store.Crc32.digest ~pos:2 ~len:9 "xx123456789yy")

let crc_prop =
  Util.qtest ~count:200 "crc32 = byte-wise reference (every pos, len)"
    QCheck2.Gen.(string_size ~gen:char (int_range 0 80))
    (fun s ->
      let n = String.length s in
      Store.Crc32.digest s = crc_reference ~pos:0 ~len:n s
      && List.for_all
           (fun pos ->
             List.for_all
               (fun len ->
                 pos + len > n
                 || Store.Crc32.digest ~pos ~len s = crc_reference ~pos ~len s)
               (List.init 25 Fun.id))
           (List.init 9 Fun.id))

let test_crc_range_checked () =
  let raises name f =
    Alcotest.(check bool)
      name true
      (match f () with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let s = "abcdefgh" in
  raises "negative pos" (fun () -> Store.Crc32.digest ~pos:(-1) ~len:2 s);
  raises "negative len" (fun () -> Store.Crc32.digest ~pos:0 ~len:(-1) s);
  raises "len past the end" (fun () -> Store.Crc32.digest ~pos:4 ~len:5 s);
  raises "pos past the end" (fun () -> Store.Crc32.digest ~pos:9 s);
  raises "huge len" (fun () -> Store.Crc32.digest ~pos:1 ~len:max_int s)

(* -------------------------------------------------------------- *)
(* The streamed footer index *)

(* Record [src] with the logger streaming into a segment file, as
   `ppd log --save` does. Without [finish], the writer is closed before
   the logger finishes, as when the run dies: the footer then falls back
   to its default stops. Returns the program and the in-memory log. *)
let stream ?(sched = Runtime.Sched.default) ?(finish = true) ~order src path
    =
  let prog = Lang.Compile.compile src in
  let eb =
    Analysis.Eblock.analyze
      ~policy:
        { Analysis.Eblock.leaf_inline_max_stmts = 0; loop_block_min_body = 2 }
      prog
  in
  let tier =
    if order then
      L.order_tier ~sched ~max_steps:200_000
    else L.T_content
  in
  let w = S.Writer.to_file ~tier path in
  let logger = Trace.Logger.create ~sink:(S.Writer.sink w) ~tier eb in
  let m =
    Runtime.Machine.create ~sched ~max_steps:200_000
      ~hooks:(Trace.Logger.factory logger) prog
  in
  ignore (Runtime.Machine.run m);
  if not finish then S.Writer.close w;
  let log = Trace.Logger.finish logger in
  S.Writer.close w;
  (prog, log)

(* The streamed footer answers every index query as [Log.intervals]
   over the in-memory log does, and holds [stops]. *)
let index_matches prog (log : L.t) ~stops path =
  let stmt_fid sid = prog.Lang.Prog.stmt_fid.(sid) in
  let file = S.open_file path and mem = S.of_log log in
  S.is_indexed file
  && S.stops file = stops
  && S.nprocs file = log.L.nprocs
  && List.for_all
       (fun pid ->
         let ivs = S.intervals file ~stmt_fid ~pid in
         ivs = S.intervals mem ~stmt_fid ~pid
         && Array.for_all
              (fun iv -> S.interval_step file iv = S.interval_step mem iv)
              ivs
         && List.for_all
              (fun reader_seq ->
                S.snapshot_step file ~pid ~reader_seq
                = S.snapshot_step mem ~pid ~reader_seq)
              (List.init (stops.(pid) + 2) (fun k -> k - 1)))
       (List.init log.L.nprocs Fun.id)

let footer_prop =
  Util.qtest ~count:40 "streamed footer = Log.intervals (tiers x schedulers)"
    QCheck2.Gen.(triple (int_range 0 100_000) (int_range 0 1000) bool)
    (fun (seed, sseed, order) ->
      let src = Gen.parallel ~protect:`Sometimes seed in
      List.for_all
        (fun sched ->
          with_tmp (fun path ->
              let prog, log = stream ~sched ~order src path in
              index_matches prog log ~stops:log.L.stops path))
        [ Runtime.Sched.default; Runtime.Sched.Random_seed sseed ])

(* What the footer records when the run never reaches [finish]: one
   past the largest seq each process logged. *)
let seen_stops (log : L.t) =
  Array.map
    (Array.fold_left (fun acc e -> max acc (L.entry_seq_at e + 1)) 0)
    log.L.entries

let test_footer_without_finish () =
  List.iter
    (fun (name, src) ->
      with_tmp (fun path ->
          let prog, log = stream ~finish:false ~order:false src path in
          Alcotest.(check bool)
            (name ^ " default stops") true
            (index_matches prog log ~stops:(seen_stops log) path)))
    [ ("fig61", Workloads.fig61); ("racy_bank", Workloads.racy_bank) ]

(* A worker faults two calls deep: its intervals stay open, and the
   footer must keep them open, parented as [Log.intervals] leaves
   them. *)
let test_footer_open_intervals () =
  let src =
    {|
      shared int g = 0;
      func leaf(x) { assert(x < 3); return x; }
      func mid(x) { var y = 0; y = leaf(x + 1); return y; }
      func worker(n) {
        var i = 0;
        var k = 0;
        for (i = 0; i < n; i = i + 1) { k = mid(i); g = g + k; }
      }
      func main() { var p = spawn worker(5); join(p); print(g); }
    |}
  in
  with_tmp (fun path ->
      let prog, log = stream ~order:false src path in
      let stmt_fid sid = prog.Lang.Prog.stmt_fid.(sid) in
      let open_ivs =
        List.concat_map
          (fun pid ->
            Array.to_list (S.intervals (S.open_file path) ~stmt_fid ~pid)
            |> List.filter (fun iv -> iv.L.iv_postlog = None))
          (List.init log.L.nprocs Fun.id)
      in
      Alcotest.(check bool)
        "intervals left open" true
        (List.length open_ivs >= 3);
      Alcotest.(check bool)
        "index = Log.intervals" true
        (index_matches prog log ~stops:log.L.stops path))

(* A stream whose intervals do not nest is refused when the footer is
   written, with [Log.intervals]'s message. *)
let test_footer_rejects_bad_nesting () =
  let post block =
    L.Postlog
      {
        block;
        seq_at = 1;
        step_at = 1;
        vals = [];
        ret = None;
        via_return = None;
      }
  in
  let pre block =
    L.Prelog { block; caller_sid = None; seq_at = 0; step_at = 0; vals = [] }
  in
  let log entries = L.content ~nprocs:1 ~entries:[| entries |] ~stops:[| 2 |] in
  Alcotest.check_raises "postlog without prelog"
    (Invalid_argument "Log.intervals: postlog without prelog") (fun () ->
      ignore (S.encoded_size (log [| post (L.Bfunc 0) |])));
  Alcotest.check_raises "mismatched postlog"
    (Invalid_argument "Log.intervals: mismatched postlog") (fun () ->
      ignore (S.encoded_size (log [| pre (L.Bfunc 0); post (L.Bloop 3) |])))

(* -------------------------------------------------------------- *)
(* Overwriting a saved log *)

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let test_overwrite_equals_fresh () =
  let _eb, big = run_log (Workloads.fib 8) in
  let _eb, small = run_log Workloads.fig61 in
  with_tmp (fun path ->
      with_tmp (fun fresh ->
          S.save path big;
          S.save path small;
          S.save fresh small;
          Alcotest.(check string)
            "same bytes" (read_bytes fresh) (read_bytes path);
          Alcotest.(check bool) "clean" true ((S.verify path).S.vr_damage = []);
          check_log_equal "loads" small (S.load path)))

let test_overwrite_through_symlink () =
  let _eb, big = run_log (Workloads.fib 8) in
  let _eb, small = run_log Workloads.fig61 in
  with_tmp (fun target ->
      let link = target ^ ".link" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove link with Sys_error _ -> ())
        (fun () ->
          S.save target big;
          Unix.symlink target link;
          S.save link small;
          Alcotest.(check bool)
            "still a link" true
            ((Unix.lstat link).Unix.st_kind = Unix.S_LNK);
          check_log_equal "target rewritten" small (S.load target)))

(* -------------------------------------------------------------- *)
(* The codec: varints and entries *)

module Vi = Store.Varint
module E = Runtime.Event
module V = Runtime.Value

(* The varint reader the decoder had before it became a loop, kept as
   the oracle for values, final offsets and [Corrupt] messages. *)
let reference_read (d : Vi.decoder) =
  let rec go shift acc =
    if shift > 62 then
      raise
        (Vi.Corrupt
           (Printf.sprintf "varint wider than 63 bits at offset %d" d.Vi.pos));
    let b = Vi.read_byte d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

let read_outcome read d =
  match read d with
  | n -> (Ok n, d.Vi.pos)
  | exception Vi.Corrupt m -> (Error m, d.Vi.pos)

let encode write n =
  let buf = Buffer.create 10 in
  write buf n;
  Buffer.contents buf

(* Every 7-bit boundary, both sides, and the extremes. *)
let boundaries =
  List.concat_map
    (fun k ->
      let b = 1 lsl (7 * k) in
      [ b - 1; b; b + 1 ])
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  @ [ 0; 1; max_int; max_int - 1 ]

let test_varint_boundaries () =
  List.iter
    (fun n ->
      let s = encode Vi.write n in
      let d = Vi.decoder s in
      Alcotest.(check int) (Printf.sprintf "unsigned %d" n) n (Vi.read d);
      Alcotest.(check bool) (Printf.sprintf "unsigned %d consumed" n) true
        (Vi.at_end d);
      (* seven bits a byte *)
      let rec bytes n = if n < 0x80 then 1 else 1 + bytes (n lsr 7) in
      Alcotest.(check int) (Printf.sprintf "unsigned %d length" n) (bytes n)
        (String.length s);
      List.iter
        (fun m ->
          let d = Vi.decoder (encode Vi.write_signed m) in
          Alcotest.(check int) (Printf.sprintf "signed %d" m) m
            (Vi.read_signed d);
          Alcotest.(check bool) (Printf.sprintf "signed %d consumed" m) true
            (Vi.at_end d))
        [ n; -n; n / 2; -(n / 2) - 1 ])
    boundaries;
  List.iter
    (fun m ->
      Alcotest.(check int) (Printf.sprintf "signed %d" m) m
        (Vi.read_signed (Vi.decoder (encode Vi.write_signed m))))
    [ min_int; min_int + 1; max_int; -1 ];
  (* an int read as unsigned 63 bits: a negative one takes nine bytes *)
  List.iter
    (fun m ->
      let s = encode Vi.write m in
      Alcotest.(check int) (Printf.sprintf "unsigned %d length" m) 9
        (String.length s);
      Alcotest.(check int) (Printf.sprintf "unsigned %d" m) m
        (Vi.read (Vi.decoder s)))
    [ -1; min_int; min_int + 1 ]

let test_varint_corrupt_messages () =
  let fails name s ~pos msg =
    let d = Vi.decoder ~pos s in
    Alcotest.(check (pair (result int string) int))
      name
      (Error msg, String.length s)
      (read_outcome Vi.read d)
  in
  fails "empty" "" ~pos:0 "unexpected end of input at offset 0";
  fails "truncated" "\x80\x80" ~pos:0 "unexpected end of input at offset 2";
  fails "truncated after a prefix" "\x05\xff" ~pos:1
    "unexpected end of input at offset 2";
  (* the over-wide check fires before the tenth byte is read *)
  let d = Vi.decoder (String.make 9 '\xff' ^ "\x01") in
  Alcotest.(check (pair (result int string) int))
    "over-wide stops at the tenth byte"
    (Error "varint wider than 63 bits at offset 9", 9)
    (read_outcome Vi.read d)

(* A logged value of magnitude 2^61 or more zigzags to a negative
   varint; it once stopped the logger with [Invalid_argument]. *)
let test_huge_values_roundtrip () =
  let _eb, log =
    run_log
      "shared int g = 0;\n\
       func main() { var x = 2147483647; g = x * x; g = 0 - g; g = g - g - g; }\n"
  in
  with_tmp (fun path ->
      S.save path log;
      check_log_equal "huge values" log (S.load path))

let varint_matches_reference =
  Util.qtest ~count:2000 "varint read = reference reader (random bytes)"
    QCheck2.Gen.(
      pair
        (string_size ~gen:(frequency [ (3, char_range '\x80' '\xff'); (1, char) ])
           (int_range 0 12))
        (int_range 0 3))
    (fun (s, pos) ->
      let pos = min pos (String.length s) in
      read_outcome Vi.read (Vi.decoder ~pos s)
      = read_outcome reference_read (Vi.decoder ~pos s))

let gen_value =
  QCheck2.Gen.(
    frequency
      [
        (1, pure V.Vundef);
        (4, map (fun n -> V.Vint n) (oneof [ int_range (-300) 300; int ]));
        (1, map (fun l -> V.Varr (Array.of_list l)) (list_size (int_range 0 5) int));
      ])

let gen_eref =
  QCheck2.Gen.(
    map2 (fun epid eseq -> { E.epid; eseq }) (int_range 0 8) (int_range 0 100_000))

let gen_values = QCheck2.Gen.(list_size (int_range 0 3) gen_value)

let gen_kind =
  let open QCheck2.Gen in
  let small = int_range 0 1_000 in
  oneof
    [
      pure E.K_assign;
      map (fun b -> E.K_pred b) bool;
      map2 (fun callee args -> E.K_call { callee; args }) small gen_values;
      map2 (fun callee ret -> E.K_call_return { callee; ret }) small (option gen_value);
      map (fun value -> E.K_return { value }) (option gen_value);
      map3
        (fun sem src was_blocked -> E.K_p { sem; src; was_blocked })
        small (option gen_eref) bool;
      map (fun sem -> E.K_v { sem }) small;
      map2 (fun chan value -> E.K_send { chan; value }) small int;
      map2 (fun chan by -> E.K_send_unblocked { chan; by }) small gen_eref;
      map3 (fun chan value src -> E.K_recv { chan; value; src }) small int gen_eref;
      map3
        (fun child callee args -> E.K_spawn { child; callee; args })
        small small gen_values;
      map3
        (fun child result child_exit -> E.K_join { child; result; child_exit })
        small (option gen_value) gen_eref;
      map (fun value -> E.K_print { value }) gen_value;
      map (fun ok -> E.K_assert { ok }) bool;
    ]

let gen_entry =
  let open QCheck2.Gen in
  let small = int_range 0 1_000 in
  let counter = oneof [ int_range 0 100_000; int ] in
  let block = oneof [ map (fun f -> L.Bfunc f) small; map (fun s -> L.Bloop s) small ] in
  let vals =
    list_size (int_range 0 4) (pair (int_range 0 200) gen_value)
  in
  oneof
    [
      map
        (fun (block, caller_sid, (seq_at, step_at), vals) ->
          L.Prelog { block; caller_sid; seq_at; step_at; vals })
        (quad block (option small) (pair counter counter) vals);
      map
        (fun ((block, (seq_at, step_at)), vals, ret, via_return) ->
          L.Postlog { block; seq_at; step_at; vals; ret; via_return })
        (quad (pair block (pair counter counter)) vals (option gen_value)
           (option (option gen_value)));
      map
        (fun (point, (seq_at, step_at), vals) ->
          L.Sync_prelog { point; seq_at; step_at; vals })
        (triple
           (oneof
              [
                pure L.At_block_entry;
                map (fun s -> L.After_sync s) small;
                map (fun f -> L.At_inlined_entry f) small;
              ])
           (pair counter counter) vals);
      map
        (fun (sid, (seq, step_at), data) -> L.Sync { sid; seq; step_at; data })
        (triple (option small) (pair counter counter)
           (oneof
              [
                map (fun k -> L.S_kind k) gen_kind;
                map2 (fun fid spawn -> L.S_proc_start { fid; spawn }) small
                  (option gen_eref);
                map2 (fun fid result -> L.S_proc_exit { fid; result }) small
                  (option gen_value);
              ]));
    ]

(* A page's worth of entries through one context decodes to the same
   entries; every strict prefix of an entry fails at its end. *)
let entry_codec_roundtrip =
  Util.qtest ~count:500 "wire: decode (encode entries) = entries; prefixes fail"
    QCheck2.Gen.(list_size (int_range 1 6) gen_entry)
    (fun entries ->
      let buf = Buffer.create 256 in
      let c = Store.Wire.ctx () in
      let ends =
        List.map
          (fun e ->
            Store.Wire.encode_entry buf c e;
            Buffer.length buf)
          entries
      in
      let s = Buffer.contents buf in
      let d = Vi.decoder s in
      let c' = Store.Wire.ctx () in
      let back = List.map (fun _ -> Store.Wire.decode_entry d c') entries in
      let first_end = List.hd ends in
      let prefixes_fail =
        List.for_all
          (fun cut ->
            match
              Store.Wire.decode_entry
                (Vi.decoder ~limit:cut s)
                (Store.Wire.ctx ())
            with
            | _ -> false
            | exception Vi.Corrupt m ->
              m = Printf.sprintf "unexpected end of input at offset %d" cut)
          (List.init first_end Fun.id)
      in
      back = entries && Vi.at_end d && prefixes_fail)

let suite =
  ( "store",
    [
      roundtrip_prop;
      Alcotest.test_case "fixed corpus round trip" `Quick
        test_fixed_corpus_roundtrip;
      Alcotest.test_case "streamed sink = in-memory log" `Quick
        test_streamed_equals_memory;
      Alcotest.test_case "trailing empty process survives a save" `Quick
        test_trailing_empty_process;
      Alcotest.test_case "truncation salvages longest prefix" `Quick
        test_truncation_salvage;
      Alcotest.test_case "every byte flip detected" `Quick
        test_byte_flip_always_detected;
      Alcotest.test_case "repair keeps each process's clean prefix" `Quick
        test_repair_keeps_clean_prefix;
      Alcotest.test_case "paged flowback = in-memory (corpus)" `Quick
        test_paged_equals_memory;
      paged_prop;
      Alcotest.test_case "offset windows replay like the whole log" `Quick
        test_offset_windows;
      Alcotest.test_case "salvaged file still debugs" `Quick
        test_salvaged_reader_still_debugs;
      Alcotest.test_case "varint 7-bit boundaries and extremes" `Quick
        test_varint_boundaries;
      Alcotest.test_case "varint corruption messages" `Quick
        test_varint_corrupt_messages;
      varint_matches_reference;
      Alcotest.test_case "huge logged values round trip" `Quick
        test_huge_values_roundtrip;
      entry_codec_roundtrip;
      Alcotest.test_case "crc32 check values" `Quick test_crc_check_values;
      crc_prop;
      Alcotest.test_case "crc32 range checked" `Quick test_crc_range_checked;
      footer_prop;
      Alcotest.test_case "footer without finish uses seen stops" `Quick
        test_footer_without_finish;
      Alcotest.test_case "footer keeps a fault's open intervals" `Quick
        test_footer_open_intervals;
      Alcotest.test_case "footer refuses intervals that do not nest" `Quick
        test_footer_rejects_bad_nesting;
      Alcotest.test_case "overwritten log = fresh save" `Quick
        test_overwrite_equals_fresh;
      Alcotest.test_case "save through a symlink writes its target" `Quick
        test_overwrite_through_symlink;
    ] )
