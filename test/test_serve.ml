(* The serve subsystem: the JSON codec, the RPC framing, the admission
   gate, and the daemon dispatcher driven in-process via [handle_line]
   — everything the transports share, without a socket in sight. *)

module J = Serve.Json
module Rpc = Serve.Rpc
module Gate = Serve.Gate
module Server = Serve.Server

(* -------------------------------------------------------------- *)
(* JSON codec *)

(* Values whose printed form must parse back unchanged. Strings stay
   printable ASCII here: the printer passes bytes >= 0x20 through raw,
   so arbitrary bytes would test UTF-8 validation (covered separately),
   not the round trip. *)
let json_gen =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return J.Null;
        map (fun b -> J.Bool b) bool;
        map (fun i -> J.Int i) (int_range (-1_000_000_000) 1_000_000_000);
        map (fun f -> J.Float f) (float_range (-1e6) 1e6);
        map
          (fun s -> J.Str s)
          (string_size ~gen:(char_range ' ' '~') (int_range 0 12));
      ]
  in
  let rec node depth =
    if depth = 0 then scalar
    else
      oneof
        [
          scalar;
          map (fun vs -> J.List vs) (list_size (int_range 0 4) (node (depth - 1)));
          map
            (fun kvs -> J.Obj kvs)
            (list_size (int_range 0 4)
               (pair
                  (string_size ~gen:(char_range 'a' 'z') (int_range 1 6))
                  (node (depth - 1))));
        ]
  in
  node 3

let json_roundtrip =
  Util.qtest ~count:200 "JSON print/parse round trip" json_gen (fun v ->
      J.parse (J.to_string v) = Ok v)

let test_json_accepts () =
  let ok input expected =
    match J.parse input with
    | Ok v -> Alcotest.(check string) input (J.to_string expected) (J.to_string v)
    | Error e -> Alcotest.failf "%s rejected: %s" input e
  in
  ok " { } " (J.Obj []);
  ok "[ ]" (J.List []);
  ok "-350" (J.Int (-350));
  ok "-3.5e2" (J.Float (-350.));
  ok {|"a\/b"|} (J.Str "a/b");
  ok {|"café"|} (J.Str "caf\xc3\xa9");
  (* surrogate pair combines to one 4-byte code point *)
  ok {|"😀"|} (J.Str "\xf0\x9f\x98\x80");
  (* raw multi-byte UTF-8 passes validation and survives *)
  ok "\"caf\xc3\xa9\"" (J.Str "caf\xc3\xa9");
  (* an integer too large for a native int degrades to a float *)
  (match J.parse "99999999999999999999" with
  | Ok (J.Float _) -> ()
  | _ -> Alcotest.fail "big integer should parse as a float")

let test_json_rejects () =
  let bad input =
    match J.parse input with
    | Error _ -> ()
    | Ok v -> Alcotest.failf "%S accepted as %s" input (J.to_string v)
  in
  bad "";
  bad "{";
  bad "[1,2";
  bad {|{"a":1,}|};
  bad "1 2";
  bad "truex";
  bad "nul";
  bad {|"\q"|};
  bad {|"\ud800"|};
  (* lone surrogate escape *)
  bad "\"\xff\"";
  (* invalid UTF-8 byte *)
  bad "\"\xc0\x80\"";
  (* overlong encoding *)
  bad "\"\xed\xa0\x80\"";
  (* surrogate encoded as UTF-8 *)
  bad "\"a\nb\"";
  (* raw control character in a string *)
  bad (String.make 70 '[' ^ "1" ^ String.make 70 ']')
(* nesting beyond the depth cap *)

(* -------------------------------------------------------------- *)
(* RPC framing *)

let test_rpc_parse () =
  (match Rpc.parse_request {|{"id":7,"method":"ping"}|} with
  | Ok rq ->
    Alcotest.(check bool) "id echoed" true (rq.Rpc.rq_id = J.Int 7);
    Alcotest.(check string) "method" "ping" rq.Rpc.rq_method;
    Alcotest.(check bool) "params default" true (rq.Rpc.rq_params = J.Obj [])
  | Error (c, m) -> Alcotest.failf "rejected: %s %s" c m);
  match Rpc.parse_request {|{"id":"x","method":"m","params":{"a":1}}|} with
  | Ok rq -> Alcotest.(check bool) "string id" true (rq.Rpc.rq_id = J.Str "x")
  | Error (c, m) -> Alcotest.failf "rejected: %s %s" c m

let test_rpc_rejects () =
  let bad line =
    match Rpc.parse_request line with
    | Error (code, _) ->
      Alcotest.(check string) ("code for " ^ line) Rpc.err_protocol code
    | Ok _ -> Alcotest.failf "%S accepted" line
  in
  bad "not json";
  bad "[1,2,3]";
  (* not an object *)
  bad {|{"method":"ping"}|};
  (* missing id *)
  bad {|{"id":null,"method":"ping"}|};
  bad {|{"id":[1],"method":"ping"}|};
  (* structured id *)
  bad {|{"id":1}|};
  (* missing method *)
  bad {|{"id":1,"method":2}|};
  bad {|{"id":1,"method":"ping","params":[]}|};
  (* params not an object *)
  bad ("{\"id\":1,\"method\":\"" ^ String.make Rpc.max_line_bytes 'x' ^ "\"}")
(* oversized line *)

let test_rpc_lines () =
  let parsed line =
    match J.parse line with
    | Ok v -> v
    | Error e -> Alcotest.failf "unparsable response %s: %s" line e
  in
  let r = parsed (Rpc.result_line ~id:(J.Int 3) (J.Obj [ ("x", J.Int 1) ])) in
  Alcotest.(check bool) "result id" true (J.member "id" r = Some (J.Int 3));
  Alcotest.(check bool) "result member" true (J.member "result" r <> None);
  let e =
    parsed (Rpc.error_line ~id:J.Null ~code:"PPD080" ~message:"broken")
  in
  Alcotest.(check bool) "error id null" true (J.member "id" e = Some J.Null);
  match J.member "error" e with
  | Some err ->
    Alcotest.(check bool) "code" true (J.member "code" err = Some (J.Str "PPD080"))
  | None -> Alcotest.fail "no error member"

(* -------------------------------------------------------------- *)
(* Admission gate *)

let test_gate_shed () =
  let g = Gate.create ~max_active:1 ~max_queue:0 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit 1");
  (match Gate.admit g with
  | Error `Busy -> ()
  | Error `Deadline -> Alcotest.fail "no deadline was set"
  | Ok _ -> Alcotest.fail "should shed with a full queue");
  Gate.release g;
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit 2");
  Gate.release g;
  let st = Gate.stats g in
  Alcotest.(check int) "admitted" 2 st.Gate.admitted;
  Alcotest.(check int) "shed" 1 st.Gate.shed;
  Alcotest.(check int) "active" 0 st.Gate.active

let test_gate_queues () =
  let g = Gate.create ~max_active:1 ~max_queue:1 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit");
  let entered = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        match Gate.admit g with
        | Ok _ ->
          Atomic.set entered true;
          Gate.release g
        | Error _ -> ())
      ()
  in
  (* wait until the thread is parked in the queue *)
  let rec spin n =
    if n = 0 then Alcotest.fail "waiter never queued"
    else if (Gate.stats g).Gate.queued = 0 then begin
      Thread.yield ();
      Thread.delay 0.001;
      spin (n - 1)
    end
  in
  spin 2000;
  Alcotest.(check bool) "not yet admitted" false (Atomic.get entered);
  Gate.release g;
  Thread.join th;
  Alcotest.(check bool) "admitted after release" true (Atomic.get entered);
  let st = Gate.stats g in
  Alcotest.(check int) "both admitted" 2 st.Gate.admitted;
  Alcotest.(check int) "nothing shed" 0 st.Gate.shed

let test_gate_with_slot_releases_on_raise () =
  let g = Gate.create ~max_active:1 ~max_queue:0 in
  (try ignore (Gate.with_slot g (fun ~queue_wait_ns:_ -> failwith "boom"))
   with Failure _ -> ());
  match Gate.admit g with
  | Ok _ -> Gate.release g
  | Error _ -> Alcotest.fail "slot leaked by a raising callback"

(* Satellite: wakeup fairness. Waiters must be served in arrival
   order — the pre-ticket condvar allowed a late waiter to barge past
   a parked earlier one on a lucky wakeup. Each waiter is parked
   before the next is spawned, so arrival order is pinned; the service
   order must equal it exactly. *)
let test_gate_fifo_order () =
  let g = Gate.create ~max_active:1 ~max_queue:8 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit");
  let order = ref [] in
  let olock = Mutex.create () in
  let spawn i =
    Thread.create
      (fun () ->
        match Gate.admit g with
        | Ok _ ->
          Mutex.lock olock;
          order := i :: !order;
          Mutex.unlock olock;
          Gate.release g
        | Error _ -> ())
      ()
  in
  let threads =
    List.map
      (fun i ->
        let th = spawn i in
        let rec spin n =
          if n = 0 then Alcotest.fail "waiter never queued"
          else if (Gate.stats g).Gate.queued < i + 1 then begin
            Thread.yield ();
            Thread.delay 0.001;
            spin (n - 1)
          end
        in
        spin 2000;
        th)
      [ 0; 1; 2; 3; 4 ]
  in
  Gate.release g;
  List.iter Thread.join threads;
  Alcotest.(check (list int)) "FIFO service order" [ 0; 1; 2; 3; 4 ]
    (List.rev !order)

let test_gate_deadline () =
  let g = Gate.create ~max_active:1 ~max_queue:4 in
  (match Gate.admit g with Ok _ -> () | Error _ -> Alcotest.fail "admit");
  (* an already-expired deadline abandons the queue instead of parking *)
  (match Gate.admit ~deadline:(Resil.Deadline.at_ns 1) g with
  | Error `Deadline -> ()
  | Error `Busy -> Alcotest.fail "expired deadline shed as busy"
  | Ok _ -> Alcotest.fail "expired deadline admitted");
  Alcotest.(check int) "deadline drop counted" 1
    (Gate.stats g).Gate.deadline_drops;
  (* the abandoned ticket must not wedge the queue for later arrivals *)
  let entered = Atomic.make false in
  let th =
    Thread.create
      (fun () ->
        match Gate.admit g with
        | Ok _ ->
          Atomic.set entered true;
          Gate.release g
        | Error _ -> ())
      ()
  in
  let rec spin n =
    if n > 0 && (Gate.stats g).Gate.queued = 0 then begin
      Thread.yield ();
      Thread.delay 0.001;
      spin (n - 1)
    end
  in
  spin 2000;
  Gate.release g;
  Thread.join th;
  Alcotest.(check bool) "later arrival served past the tombstone" true
    (Atomic.get entered)

(* -------------------------------------------------------------- *)
(* The daemon, in-process *)

(* One recorded fig61 execution on disk: the program file and its
   durable segment, which is what `open` wants. *)
let with_fixture f =
  let mpl = Filename.temp_file "serve_fig61" ".mpl" in
  let seg = Filename.temp_file "serve_fig61" ".seg" in
  Out_channel.with_open_text mpl (fun oc ->
      Out_channel.output_string oc Workloads.fig61);
  let prog = Lang.Compile.compile Workloads.fig61 in
  let eb = Analysis.Eblock.analyze prog in
  let w = Store.Segment.Writer.to_file seg in
  let logger = Trace.Logger.create ~sink:(Store.Segment.Writer.sink w) eb in
  let m = Runtime.Machine.create ~hooks:(Trace.Logger.factory logger) prog in
  ignore (Runtime.Machine.run m);
  ignore (Trace.Logger.finish logger);
  Store.Segment.Writer.close w;
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove mpl with Sys_error _ -> ());
      try Sys.remove seg with Sys_error _ -> ())
    (fun () -> f ~mpl ~seg)

let parsed line =
  match J.parse line with
  | Ok v -> v
  | Error e -> Alcotest.failf "unparsable response %s: %s" line e

let result_of line =
  let v = parsed line in
  match J.member "result" v with
  | Some r -> r
  | None -> Alcotest.failf "expected a result, got %s" line

let error_code_of line =
  let v = parsed line in
  match J.member "error" v with
  | Some err -> (
    match Option.bind (J.member "code" err) J.to_str with
    | Some c -> c
    | None -> Alcotest.failf "error without code: %s" line)
  | None -> Alcotest.failf "expected an error, got %s" line

let jint r name =
  match Option.bind (J.member name r) J.to_int with
  | Some i -> i
  | None -> Alcotest.failf "missing int %s in %s" name (J.to_string r)

let jstr r name =
  match Option.bind (J.member name r) J.to_str with
  | Some s -> s
  | None -> Alcotest.failf "missing string %s in %s" name (J.to_string r)

let open_line ~id ?(inline = 0) ~mpl ~seg () =
  J.to_string
    (J.Obj
       [
         ("id", J.Int id);
         ("method", J.Str "open");
         ( "params",
           J.Obj
             [
               ("log", J.Str seg);
               ("program", J.Str mpl);
               ("inline", J.Int inline);
             ] );
       ])

let req ~id meth params =
  J.to_string
    (J.Obj [ ("id", J.Int id); ("method", J.Str meth); ("params", J.Obj params) ])

let open_handle srv sess ~mpl ~seg =
  jint (result_of (Server.handle_line srv sess (open_line ~id:1 ~mpl ~seg ()))) "handle"

let test_dispatch_basics () =
  let srv = Server.create () in
  let s = Server.session srv in
  let pong = parsed (Server.handle_line srv s {|{"id":9,"method":"ping"}|}) in
  Alcotest.(check bool) "id echoed" true (J.member "id" pong = Some (J.Int 9));
  Alcotest.(check string) "unknown method" Rpc.err_unknown_method
    (error_code_of (Server.handle_line srv s {|{"id":1,"method":"nope"}|}));
  let mal = parsed (Server.handle_line srv s "not json at all") in
  Alcotest.(check bool) "malformed gets id null" true
    (J.member "id" mal = Some J.Null);
  Alcotest.(check string) "malformed is protocol error" Rpc.err_protocol
    (error_code_of (Server.handle_line srv s "not json at all"));
  Alcotest.(check string) "missing params rejected" Rpc.err_bad_params
    (error_code_of (Server.handle_line srv s {|{"id":2,"method":"open"}|}));
  Alcotest.(check string) "unknown handle" Rpc.err_unknown_handle
    (error_code_of
       (Server.handle_line srv s {|{"id":3,"method":"flowback","params":{"handle":99}}|}));
  Server.end_session srv s;
  Server.shutdown srv

(* A table row's parameters are typed from its declaration: a value of
   the wrong JSON type is PPD082, like a missing handle. *)
let test_row_params_typed () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      List.iter
        (fun (meth, param) ->
          Alcotest.(check string)
            (meth ^ " " ^ J.to_string (J.Obj [ param ]))
            Rpc.err_bad_params
            (error_code_of
               (Server.handle_line srv s
                  (req ~id:2 meth [ ("handle", J.Int h); param ]))))
        [
          ("restore", ("atStep", J.Str "end"));
          ("race", ("degraded", J.Int 1));
          ("whatif", ("set", J.Obj [ ("limit", J.Str "3") ]));
          ("whatif", ("set", J.List [ J.Str "limit=3" ]));
        ];
      Server.end_session srv s;
      Server.shutdown srv)

let test_registry_refcounts () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s1 = Server.session srv in
      let s2 = Server.session srv in
      let r1 = result_of (Server.handle_line srv s1 (open_line ~id:1 ~mpl ~seg ())) in
      let h1 = jint r1 "handle" in
      Alcotest.(check int) "first open refs" 1 (jint r1 "refs");
      let r2 = result_of (Server.handle_line srv s2 (open_line ~id:2 ~mpl ~seg ())) in
      let h2 = jint r2 "handle" in
      Alcotest.(check int) "second open shares the entry" 2 (jint r2 "refs");
      (* handle numbering is session-scoped: every session's first
         open is handle 1, so scripted clients need not parse it *)
      Alcotest.(check int) "s1 first handle" 1 h1;
      Alcotest.(check int) "s2 first handle" 1 h2;
      let st = result_of (Server.handle_line srv s2 (req ~id:3 "stats" [ ("handle", J.Int h2) ])) in
      Alcotest.(check int) "stats sees both refs" 2 (jint st "refs");
      let cl = result_of (Server.handle_line srv s1 (req ~id:4 "close" [ ("handle", J.Int h1) ])) in
      Alcotest.(check int) "close drops a ref" 1 (jint cl "refs");
      Alcotest.(check string) "closed handle is unknown" Rpc.err_unknown_handle
        (error_code_of (Server.handle_line srv s1 (req ~id:5 "close" [ ("handle", J.Int h1) ])));
      Alcotest.(check string) "handles are per-session" Rpc.err_unknown_handle
        (error_code_of (Server.handle_line srv s1 (req ~id:6 "stats" [ ("handle", J.Int h2) ])));
      Server.end_session srv s2;
      Server.end_session srv s2;
      (* idempotent *)
      let s3 = Server.session srv in
      let ss = result_of (Server.handle_line srv s3 (req ~id:7 "serverStats" [])) in
      Alcotest.(check int) "registry empty after last ref" 0 (jint ss "openLogs");
      Alcotest.(check int) "no handles leak" 0 (jint ss "openHandles");
      Server.end_session srv s1;
      Server.end_session srv s3;
      Server.shutdown srv)

let test_open_quota () =
  with_fixture (fun ~mpl ~seg ->
      let config = { Server.default_config with max_open_logs = 1 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      ignore (open_handle srv s ~mpl ~seg);
      Alcotest.(check string) "open quota" Rpc.err_quota
        (error_code_of
           (Server.handle_line srv s (open_line ~id:2 ~inline:1 ~mpl ~seg ())));
      Server.end_session srv s;
      Server.shutdown srv)

let flowback_result srv sess ~h ~id =
  result_of
    (Server.handle_line srv sess (req ~id "flowback" [ ("handle", J.Int h); ("depth", J.Int 2) ]))

let test_shared_cache_across_sessions () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s1 = Server.session srv in
      let h1 = open_handle srv s1 ~mpl ~seg in
      let r1 = flowback_result srv s1 ~h:h1 ~id:2 in
      Alcotest.(check int) "cold run misses" 0 (jint r1 "cacheHits");
      Alcotest.(check bool) "cold run replays" true (jint r1 "cacheMisses" > 0);
      (* same session, warm *)
      let r2 = flowback_result srv s1 ~h:h1 ~id:3 in
      Alcotest.(check string) "byte-identical answer (warm)" (jstr r1 "output")
        (jstr r2 "output");
      Alcotest.(check bool) "warm run hits" true (jint r2 "cacheHits" > 0);
      Alcotest.(check int) "warm run never misses" 0 (jint r2 "cacheMisses");
      Alcotest.(check int) "assembly count unchanged (byte-identity)"
        (jint r1 "replays") (jint r2 "replays");
      (* second session on the same log inherits the warm cache *)
      let s2 = Server.session srv in
      let h2 = open_handle srv s2 ~mpl ~seg in
      let r3 = flowback_result srv s2 ~h:h2 ~id:4 in
      Alcotest.(check string) "byte-identical across sessions" (jstr r1 "output")
        (jstr r3 "output");
      Alcotest.(check bool) "other session hits the shared cache" true
        (jint r3 "cacheHits" > 0);
      let st = result_of (Server.handle_line srv s2 (req ~id:5 "stats" [ ("handle", J.Int h2) ])) in
      (match J.member "fragCache" st with
      | Some fc -> Alcotest.(check bool) "fragCache reports hits" true (jint fc "hits" > 0)
      | None -> Alcotest.fail "stats without fragCache");
      Server.end_session srv s1;
      Server.end_session srv s2;
      Server.shutdown srv)

let test_replay_parallel_matches_serial () =
  with_fixture (fun ~mpl ~seg ->
      let serial = Server.create () in
      let par = Server.create ~config:{ Server.default_config with jobs = 4 } () in
      let out srv =
        let s = Server.session srv in
        let h = open_handle srv s ~mpl ~seg in
        let r = result_of (Server.handle_line srv s (req ~id:2 "replay" [ ("handle", J.Int h) ])) in
        let o = jstr r "output" in
        Server.end_session srv s;
        Server.shutdown srv;
        o
      in
      Alcotest.(check string) "-j4 replay is byte-identical" (out serial) (out par))

let test_watchdog_and_degraded () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      Alcotest.(check string) "tiny budget trips PPD060" "PPD060"
        (error_code_of
           (Server.handle_line srv s
              (req ~id:2 "flowback"
                 [ ("handle", J.Int h); ("maxReplaySteps", J.Int 1) ])));
      let r =
        result_of
          (Server.handle_line srv s
             (req ~id:3 "flowback"
                [
                  ("handle", J.Int h);
                  ("maxReplaySteps", J.Int 1);
                  ("degraded", J.Bool true);
                ]))
      in
      Alcotest.(check bool) "degraded mode declares holes" true (jint r "holes" > 0);
      Alcotest.(check string) "over-cap budget is a quota error" Rpc.err_quota
        (error_code_of
           (Server.handle_line srv s
              (req ~id:4 "flowback"
                 [ ("handle", J.Int h); ("maxReplaySteps", J.Int 20_000_000) ])));
      Server.end_session srv s;
      Server.shutdown srv)

let test_step_quota () =
  with_fixture (fun ~mpl ~seg ->
      let config = { Server.default_config with step_quota = 1 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let r = flowback_result srv s ~h ~id:2 in
      Alcotest.(check bool) "first heavy request spends steps" true
        (jint r "replaySteps" > 0);
      Alcotest.(check string) "then the lifetime quota trips" Rpc.err_quota
        (error_code_of (Server.handle_line srv s (req ~id:3 "flowback" [ ("handle", J.Int h) ])));
      (* light methods still answer *)
      ignore (result_of (Server.handle_line srv s (req ~id:4 "stats" [ ("handle", J.Int h) ])));
      ignore (result_of (Server.handle_line srv s (req ~id:5 "serverStats" [])));
      Server.end_session srv s;
      Server.shutdown srv)

let test_fsck_method () =
  with_fixture (fun ~mpl:_ ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let r = result_of (Server.handle_line srv s (req ~id:1 "fsck" [ ("log", J.Str seg) ])) in
      Alcotest.(check bool) "clean" true (J.member "clean" r = Some (J.Bool true));
      Alcotest.(check bool) "records counted" true (jint r "records" > 0);
      Alcotest.(check string) "unreadable log is PPD050" "PPD050"
        (error_code_of
           (Server.handle_line srv s
              (req ~id:2 "fsck" [ ("log", J.Str "/nonexistent/file.seg") ])));
      Server.end_session srv s;
      Server.shutdown srv)

let test_obs_namespace_invariant () =
  with_fixture (fun ~mpl ~seg ->
      Obs.enable ();
      Obs.reset ();
      Fun.protect ~finally:Obs.disable (fun () ->
          let srv = Server.create () in
          let s1 = Server.session srv in
          let s2 = Server.session srv in
          let h1 = open_handle srv s1 ~mpl ~seg in
          ignore (flowback_result srv s1 ~h:h1 ~id:2);
          let h2 = open_handle srv s2 ~mpl ~seg in
          ignore (flowback_result srv s2 ~h:h2 ~id:2);
          ignore (Server.handle_line srv s2 {|{"id":3,"method":"nope"}|});
          let counters = Obs.counters () in
          let total name =
            List.fold_left
              (fun acc (k, v) ->
                if String.length k > 7 && String.sub k 0 7 = "serve.s"
                   && String.length k > String.length name
                   && String.sub k (String.length k - String.length name)
                        (String.length name) = name
                then acc + v
                else acc)
              0 counters
          in
          let global name =
            match List.assoc_opt ("serve." ^ name) counters with
            | Some v -> v
            | None -> 0
          in
          List.iter
            (fun name ->
              Alcotest.(check int)
                (Printf.sprintf "serve.%s = sum of serve.s<ID>.%s" name name)
                (global name) (total ("." ^ name)))
            [ "requests"; "errors"; "cache.hits"; "cache.misses"; "shed" ];
          Alcotest.(check bool) "requests were counted at all" true
            (global "requests" > 0);
          Server.end_session srv s1;
          Server.end_session srv s2;
          Server.shutdown srv))

(* -------------------------------------------------------------- *)
(* Survivability (DESIGN §17): deadlines, quarantine, memory budget,
   crash recovery *)

(* A clock whose first reading is sane and every later reading is far
   in the future: the deadline is minted live, then found expired at
   the first e-block replay boundary. *)
let with_expiring_clock f =
  let calls = ref 0 in
  Resil.Clock.with_source
    (fun () ->
      incr calls;
      if !calls <= 1 then 1_000 else max_int / 2)
    f

let test_deadline_ppd090 () =
  with_fixture (fun ~mpl ~seg ->
      let srv = Server.create () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let code =
        with_expiring_clock (fun () ->
            error_code_of
              (Server.handle_line srv s
                 (req ~id:2 "flowback"
                    [ ("handle", J.Int h); ("deadlineMs", J.Int 5) ])))
      in
      Alcotest.(check string) "expired deadline answers PPD090"
        Rpc.err_deadline code;
      (* the slot was released and no breaker moved: the same query
         without a deadline still succeeds *)
      ignore (flowback_result srv s ~h ~id:3);
      Server.end_session srv s;
      Server.shutdown srv)

(* Flip one byte inside every page frame (offsets via fsck on the
   clean file), leaving checkpoints, footer and trailer intact: the
   file still opens indexed, and every page decode fails its CRC —
   a deterministic hard fault (PPD050) at query time. *)
let poison_pages seg =
  let pages = (Store.Segment.fsck seg).Store.Segment.fk_pages in
  let raw = In_channel.with_open_bin seg In_channel.input_all in
  let b = Bytes.of_string raw in
  List.iter
    (fun (p : Store.Segment.fsck_page) ->
      let off = p.Store.Segment.fp_offset + 4 in
      Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff)))
    pages;
  Out_channel.with_open_bin seg (fun oc ->
      Out_channel.output_string oc (Bytes.to_string b))

let test_quarantine_ppd091 () =
  with_fixture (fun ~mpl ~seg ->
      poison_pages seg;
      let config =
        {
          Server.default_config with
          breaker =
            { Resil.Breaker.failure_threshold = 2; cooldown_ms = 3_600_000 };
        }
      in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let fb id =
        error_code_of
          (Server.handle_line srv s (req ~id "flowback" [ ("handle", J.Int h) ]))
      in
      Alcotest.(check string) "hard fault 1" "PPD050" (fb 2);
      Alcotest.(check string) "hard fault 2" "PPD050" (fb 3);
      Alcotest.(check string) "breaker trips: fast-fail PPD091"
        Rpc.err_quarantined (fb 4);
      Alcotest.(check string) "stays quarantined through the cooldown"
        Rpc.err_quarantined (fb 5);
      (* serverStats exposes the breaker *)
      let ss = result_of (Server.handle_line srv s (req ~id:6 "serverStats" [])) in
      (match J.member "breakers" ss with
      | Some (J.List (b :: _)) ->
        Alcotest.(check string) "breaker key is the log" seg (jstr b "key");
        Alcotest.(check string) "breaker is open" "open" (jstr b "state");
        Alcotest.(check bool) "fast fails counted" true (jint b "fastFails" >= 2)
      | _ -> Alcotest.fail "serverStats without breakers");
      (* light methods on the quarantined log still answer *)
      ignore (result_of (Server.handle_line srv s (req ~id:7 "stats" [ ("handle", J.Int h) ])));
      Server.end_session srv s;
      Server.shutdown srv)

(* Quarantine isolates: a healthy co-tenant log keeps answering while
   the poisoned one fast-fails. *)
let test_quarantine_isolates () =
  with_fixture (fun ~mpl ~seg ->
      let bad = Filename.temp_file "serve_bad" ".seg" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
        (fun () ->
          let raw = In_channel.with_open_bin seg In_channel.input_all in
          Out_channel.with_open_bin bad (fun oc ->
              Out_channel.output_string oc raw);
          poison_pages bad;
          let config =
            {
              Server.default_config with
              breaker =
                { Resil.Breaker.failure_threshold = 1; cooldown_ms = 3_600_000 };
            }
          in
          let srv = Server.create ~config () in
          let s = Server.session srv in
          let hg = open_handle srv s ~mpl ~seg in
          let hb =
            jint
              (result_of
                 (Server.handle_line srv s
                    (J.to_string
                       (J.Obj
                          [
                            ("id", J.Int 2);
                            ("method", J.Str "open");
                            ( "params",
                              J.Obj
                                [ ("log", J.Str bad); ("program", J.Str mpl) ]
                            );
                          ]))))
              "handle"
          in
          let code h id =
            error_code_of
              (Server.handle_line srv s
                 (req ~id "flowback" [ ("handle", J.Int h) ]))
          in
          Alcotest.(check string) "poisoned log faults" "PPD050" (code hb 3);
          Alcotest.(check string) "poisoned log quarantined"
            Rpc.err_quarantined (code hb 4);
          (* the healthy log is untouched by its co-tenant's breaker *)
          ignore (flowback_result srv s ~h:hg ~id:5);
          Server.end_session srv s;
          Server.shutdown srv))

(* One execution of [src] recorded in both tiers (DESIGN §16): the
   program file, its content-tier segment and its order-tier segment. *)
let with_tiers ?(src = Workloads.fig61) ?(sched = Runtime.Sched.default) f =
  let mpl = Filename.temp_file "serve_tiers" ".mpl" in
  let content = Filename.temp_file "serve_tiers" ".content.seg" in
  let order = Filename.temp_file "serve_tiers" ".order.seg" in
  Out_channel.with_open_text mpl (fun oc -> Out_channel.output_string oc src);
  let eb = Analysis.Eblock.analyze (Lang.Compile.compile src) in
  let tier =
    Trace.Log.order_tier ~sched ~engine:Runtime.Machine.Vm_engine
      ~max_steps:1_000_000
  in
  let _, c, _ = Trace.Logger.run_logged ~sched eb in
  let _, o, _ = Trace.Logger.run_logged ~sched ~tier eb in
  Store.Segment.save content c;
  Store.Segment.save order o;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ mpl; content; order ])
    (fun () -> f ~mpl ~content ~order)

(* The program re-executions Obs has seen since the last reset. *)
let reconstructions () =
  List.length
    (List.filter
       (fun sp -> sp.Obs.sp_cat = "phase" && sp.Obs.sp_name = "reconstruction")
       (Obs.spans ()))

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable f

(* A query's answer without the header line, which names the log file. *)
let answer srv s ~h ~id meth =
  let line = Server.handle_line srv s (req ~id meth [ ("handle", J.Int h) ]) in
  let out = jstr (result_of line) "output" in
  if meth = "race" then out
  else
    match String.index_opt out '\n' with
    | Some i -> String.sub out (i + 1) (String.length out - i - 1)
    | None -> out

let methods = [ "flowback"; "replay"; "race" ]

let check_within_budget srv s =
  let ss = result_of (Server.handle_line srv s (req ~id:3 "serverStats" [])) in
  match J.member "memory" ss with
  | Some m ->
    Alcotest.(check int) "cap reported" 16_384 (jint m "budgetCap");
    Alcotest.(check bool) "usage within budget after rebalance" true
      (jint m "budgetUsed" <= 16_384)
  | None -> Alcotest.fail "serverStats without memory block"

let test_mem_budget () =
  with_fixture (fun ~mpl ~seg ->
      let unbudgeted = Server.create () in
      let s0 = Server.session unbudgeted in
      let h0 = open_handle unbudgeted s0 ~mpl ~seg in
      let r0 = flowback_result unbudgeted s0 ~h:h0 ~id:2 in
      Server.end_session unbudgeted s0;
      Server.shutdown unbudgeted;
      let config = { Server.default_config with mem_budget = 16_384 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg in
      let r1 = flowback_result srv s ~h ~id:2 in
      Alcotest.(check string) "byte-identical under a memory budget"
        (jstr r0 "output") (jstr r1 "output");
      check_within_budget srv s;
      Server.end_session srv s;
      Server.shutdown srv);
  (* an order-tier log whose reconstruction alone outweighs the budget:
     every fill is evicted again, so every request rebuilds it *)
  with_tiers ~src:(Workloads.counter ~workers:3 ~incs:6 ~mutex:true)
    (fun ~mpl ~content:_ ~order ->
      let answers srv =
        let s = Server.session srv in
        let h = open_handle srv s ~mpl ~seg:order in
        (List.map (fun m -> (m, answer srv s ~h ~id:2 m)) methods, s)
      in
      let srv0 = Server.create () in
      let want, s0 = answers srv0 in
      Server.end_session srv0 s0;
      Server.shutdown srv0;
      let config = { Server.default_config with mem_budget = 16_384 } in
      let srv = Server.create ~config () in
      with_obs (fun () ->
          let got, s = answers srv in
          List.iter2
            (fun (m, a) (_, b) ->
              Alcotest.(check string)
                (m ^ " byte-identical under a memory budget") a b)
            want got;
          Alcotest.(check int) "evicted reconstruction rebuilt per request"
            (List.length methods) (reconstructions ());
          check_within_budget srv s;
          Server.end_session srv s);
      Server.shutdown srv)

(* The reconstruction slot's contract: however many sessions and
   requests hit one order-tier registry entry, the program is
   re-executed once, and every answer is the content tier's. *)
let test_order_reconstructs_once () =
  with_tiers (fun ~mpl ~content ~order ->
      let srv = Server.create () in
      let s = Server.session srv in
      let hc = open_handle srv s ~mpl ~seg:content in
      let want = List.map (fun m -> (m, answer srv s ~h:hc ~id:2 m)) methods in
      Server.end_session srv s;
      with_obs (fun () ->
          let s1 = Server.session srv in
          let s2 = Server.session srv in
          let h1 = open_handle srv s1 ~mpl ~seg:order in
          let h2 = open_handle srv s2 ~mpl ~seg:order in
          for round = 1 to 3 do
            List.iter
              (fun (s, h) ->
                List.iter
                  (fun (m, a) ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s round %d = content tier" m round)
                      a
                      (answer srv s ~h ~id:(10 + round) m))
                  want)
              [ (s1, h1); (s2, h2) ]
          done;
          Alcotest.(check int) "one re-execution for 18 requests" 1
            (reconstructions ());
          Server.end_session srv s1;
          Server.end_session srv s2);
      Server.shutdown srv)

(* The parallel dynamic graph a race request reads is built once per
   registry entry, however many sessions and requests ask; a budget
   too small to hold it evicts it after every fill, and the next
   request rebuilds it. The answer never changes. *)
let race_graphs () =
  List.length
    (List.filter
       (fun sp -> sp.Obs.sp_cat = "phase" && sp.Obs.sp_name = "race-graph")
       (Obs.spans ()))

let test_race_graph_once () =
  with_tiers ~src:(Workloads.counter ~workers:3 ~incs:4 ~mutex:true)
    (fun ~mpl ~content ~order:_ ->
      let races config =
        let srv = Server.create ~config () in
        let s1 = Server.session srv in
        let s2 = Server.session srv in
        let h1 = open_handle srv s1 ~mpl ~seg:content in
        let h2 = open_handle srv s2 ~mpl ~seg:content in
        let answers =
          with_obs (fun () ->
              let a =
                [
                  answer srv s1 ~h:h1 ~id:2 "race";
                  answer srv s2 ~h:h2 ~id:3 "race";
                  answer srv s1 ~h:h1 ~id:4 "race";
                ]
              in
              (a, race_graphs ()))
        in
        Server.end_session srv s1;
        Server.end_session srv s2;
        Server.shutdown srv;
        answers
      in
      let want, built = races Server.default_config in
      Alcotest.(check int) "one build for three requests" 1 built;
      List.iter
        (Alcotest.(check string) "byte-identical answers" (List.hd want))
        want;
      let got, rebuilt =
        races { Server.default_config with mem_budget = 1 }
      in
      Alcotest.(check int) "evicted graph rebuilt per request" 3 rebuilt;
      List.iter2 (Alcotest.(check string) "same answer after eviction") want got)

(* Failures are answered, not cached: the request after a transient read
   fault re-executes and answers cleanly, and a divergence is re-derived
   on every request. *)
let test_order_failures_not_cached () =
  with_tiers (fun ~mpl ~content:_ ~order ->
      let clean =
        let srv = Server.create () in
        let s = Server.session srv in
        let h = open_handle srv s ~mpl ~seg:order in
        let r =
          Server.handle_line srv s
            (req ~id:2 "flowback" [ ("handle", J.Int h) ])
        in
        Server.end_session srv s;
        Server.shutdown srv;
        r
      in
      let srv = Server.create () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg:order in
      let fb () =
        Server.handle_line srv s (req ~id:2 "flowback" [ ("handle", J.Int h) ])
      in
      (match Fault.arm "store.segment.read:1" with
      | Ok () -> ()
      | Error e -> Alcotest.failf "fault spec: %s" e);
      Fun.protect ~finally:Fault.disarm (fun () ->
          Alcotest.(check string) "first fill faults" "PPD050"
            (error_code_of (fb ()));
          Alcotest.(check string) "next request answers like a clean daemon"
            clean (fb ()));
      let bad = Filename.temp_file "serve_other" ".mpl" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove bad with Sys_error _ -> ())
        (fun () ->
          Out_channel.with_open_text bad (fun oc ->
              Out_channel.output_string oc "func main() { print(1); }");
          let hb = open_handle srv s ~mpl:bad ~seg:order in
          let code id =
            error_code_of
              (Server.handle_line srv s
                 (req ~id "flowback" [ ("handle", J.Int hb) ]))
          in
          Alcotest.(check string) "divergence" "PPD061" (code 4);
          Alcotest.(check string) "divergence again" "PPD061" (code 5));
      Server.end_session srv s;
      Server.shutdown srv)

let with_journal f =
  let jpath = Filename.temp_file "serve" ".journal" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove jpath with Sys_error _ -> ())
    (fun () -> f jpath)

let test_journal_resume_attach () =
  with_fixture (fun ~mpl ~seg ->
      with_journal (fun jpath ->
          let srv1 = Server.create ~journal:jpath () in
          let s1 = Server.session srv1 in
          let h = open_handle srv1 s1 ~mpl ~seg in
          let r1 = flowback_result srv1 s1 ~h ~id:2 in
          let sid = Server.session_id s1 in
          (* "SIGKILL": neither end_session nor shutdown runs *)
          let srv2 = Server.create ~resume:jpath () in
          let s2 = Server.session srv2 in
          let ss =
            result_of (Server.handle_line srv2 s2 (req ~id:1 "serverStats" []))
          in
          Alcotest.(check int) "one recoverable session" 1
            (jint ss "recoverable");
          let at =
            result_of
              (Server.handle_line srv2 s2
                 (req ~id:2 "attach" [ ("session", J.Int sid) ]))
          in
          Alcotest.(check int) "replay-step quota inherited"
            (jint r1 "replaySteps")
            (jint at "replaySteps");
          let r2 = flowback_result srv2 s2 ~h ~id:3 in
          Alcotest.(check string) "byte-identical across the crash"
            (jstr r1 "output") (jstr r2 "output");
          (* the recovered session can only be adopted once *)
          let s3 = Server.session srv2 in
          Alcotest.(check string) "second attach is stale" Rpc.err_stale
            (error_code_of
               (Server.handle_line srv2 s3
                  (req ~id:4 "attach" [ ("session", J.Int sid) ])));
          Server.end_session srv2 s2;
          Server.end_session srv2 s3;
          Server.shutdown srv2))

let test_stale_handle_ppd092 () =
  with_fixture (fun ~mpl ~seg ->
      with_journal (fun jpath ->
          let srv1 = Server.create ~journal:jpath () in
          let s1 = Server.session srv1 in
          ignore (open_handle srv1 s1 ~mpl ~seg);
          let sid = Server.session_id s1 in
          (* crash, and the log vanishes before the daemon is resumed *)
          Sys.remove seg;
          let srv2 = Server.create ~resume:jpath () in
          let s2 = Server.session srv2 in
          let at =
            result_of
              (Server.handle_line srv2 s2
                 (req ~id:1 "attach" [ ("session", J.Int sid) ]))
          in
          (match J.member "handles" at with
          | Some (J.List (hd :: _)) ->
            Alcotest.(check bool) "handle recovered stale" true
              (J.member "live" hd = Some (J.Bool false))
          | _ -> Alcotest.fail "attach without handles");
          Alcotest.(check string) "stale handle answers PPD092" Rpc.err_stale
            (error_code_of
               (Server.handle_line srv2 s2
                  (req ~id:2 "flowback" [ ("handle", J.Int 1) ])));
          (* a stale handle can still be closed cleanly *)
          ignore
            (result_of
               (Server.handle_line srv2 s2
                  (req ~id:3 "close" [ ("handle", J.Int 1) ])));
          Server.end_session srv2 s2;
          Server.shutdown srv2))

(* The one failure map: each exception becomes its code, and the CLI's
   exit table has a row for every code the map returns, plus PPD082
   (exit 1): a what-if the log cannot answer as asked. *)
let test_failure_map () =
  let cases =
    [
      (Store.Segment.Unreadable { path = "x.log"; reason = "r" }, "PPD050", 6);
      (Ppd.Controller.Replay_overrun { pid = 0; iv_id = 1; budget = 1 },
       "PPD060", 7);
      (Ppd.Reconstruct.Divergence { reason = "r" }, "PPD061", 8);
      (Ppd.Emulator.Replay_mismatch "r", "PPD062", 8);
      (Fault.Injected { site = "s"; kind = Fault.Transient }, "PPD086", 2);
      (Resil.Deadline.Expired, Rpc.err_deadline, 7);
    ]
  in
  List.iter
    (fun (exn, code, status) ->
      match Serve.Query.guard (fun () -> raise exn) with
      | Error d ->
        Alcotest.(check string) (Printexc.to_string exn) code
          d.Lang.Diag.d_code;
        Alcotest.(check bool) "an error" true
          (d.Lang.Diag.d_severity = Lang.Diag.Sev_error);
        Alcotest.(check int) ("exit status of " ^ code) status
          (List.assoc code Serve.Query.exit_table)
      | Ok () -> Alcotest.fail "guard returned")
    cases;
  Alcotest.(check int) "a what-if the log cannot answer exits 1" 1
    (List.assoc Rpc.err_bad_params Serve.Query.exit_table);
  Alcotest.(check (list string)) "the table has exactly the map's codes"
    (List.sort compare
       (Rpc.err_bad_params :: List.map (fun (_, c, _) -> c) cases))
    (List.sort compare (List.map fst Serve.Query.exit_table));
  match Serve.Query.guard (fun () -> raise Exit) with
  | exception Exit -> ()
  | _ -> Alcotest.fail "guard swallowed an unmapped exception"

(* A race that changes control flow: under random:3 the writer's store
   lands after the reader's prelog recorded g = 0, so the recorded
   reader reads 12 and prints, while its replay from the prelog reads 0
   and reaches its exit one event early. *)
let tiny_race =
  {|shared int g = 0;
func writer(x) { g = g + 12; return x; }
func reader(x) { var b = g; if (b != 0) { print(b); } return x; }
func main() { var p1 = spawn reader(1); var p2 = spawn writer(2); join(p1); join(p2); }
|}

let with_racy f =
  with_tiers ~src:tiny_race ~sched:(Runtime.Sched.Random_seed 3) f

let test_racy_replay_ppd062 () =
  with_racy (fun ~mpl ~content ~order ->
      List.iter
        (fun seg ->
          let srv = Server.create () in
          let s = Server.session srv in
          let h = open_handle srv s ~mpl ~seg in
          let ask id params =
            Server.handle_line srv s
              (req ~id "replay" (("handle", J.Int h) :: params))
          in
          Alcotest.(check string) "racy replay answers PPD062" "PPD062"
            (error_code_of (ask 2 []));
          let r = result_of (ask 3 [ ("degraded", J.Bool true) ]) in
          Alcotest.(check bool) "degraded: one hole" true (jint r "holes" = 1);
          Alcotest.(check bool) "the hole says why" true
            (Util.contains ~sub:"(replay diverged: " (jstr r "output"));
          Server.end_session srv s;
          Server.shutdown srv)
        [ content; order ])

(* A race answer's replays are charged to the session like any other:
   the request that builds it reports them, a request answered from the
   registry entry's race slot reports none, and the steps count against
   the lifetime quota. *)
let test_race_charged () =
  with_racy (fun ~mpl ~content ~order:_ ->
      let race srv s id =
        Server.handle_line srv s (req ~id "race" [ ("handle", J.Int 1) ])
      in
      let srv = Server.create () in
      let s = Server.session srv in
      ignore (open_handle srv s ~mpl ~seg:content);
      let first = result_of (race srv s 2) in
      let steps = jint first "replaySteps" in
      Alcotest.(check bool) "the build reports its replays" true
        (steps > 0 && jint first "replays" > 0);
      Alcotest.(check bool) "the race is reported" true (jint first "races" > 0);
      let second = result_of (race srv s 3) in
      Alcotest.(check int) "a warm answer replays nothing" 0
        (jint second "replaySteps");
      Alcotest.(check string) "same answer" (jstr first "output")
        (jstr second "output");
      Server.end_session srv s;
      Server.shutdown srv;
      let config = { Server.default_config with step_quota = steps - 1 } in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      ignore (open_handle srv s ~mpl ~seg:content);
      ignore (result_of (race srv s 2));
      Alcotest.(check string) "the build's steps spend the quota" Rpc.err_quota
        (error_code_of (race srv s 3));
      Server.end_session srv s;
      Server.shutdown srv)

let test_racy_breaker () =
  with_racy (fun ~mpl ~content ~order:_ ->
      let config =
        {
          Server.default_config with
          breaker =
            { Resil.Breaker.failure_threshold = 2; cooldown_ms = 3_600_000 };
        }
      in
      let srv = Server.create ~config () in
      let s = Server.session srv in
      let h = open_handle srv s ~mpl ~seg:content in
      let replay id =
        error_code_of
          (Server.handle_line srv s (req ~id "replay" [ ("handle", J.Int h) ]))
      in
      Alcotest.(check string) "hard fault 1" "PPD062" (replay 2);
      Alcotest.(check string) "hard fault 2" "PPD062" (replay 3);
      Alcotest.(check string) "breaker trips" Rpc.err_quarantined (replay 4);
      Server.end_session srv s;
      Server.shutdown srv)

(* The command table's gate over random programs: every row answers a
   run, its saved content log, its saved order-tier log and the
   daemon's handle on either log alike from line 2 on (line 1 names the
   source; race writes none), and a failure is the same diagnostic
   everywhere. A run that halts in another process than 0 roots its
   flowback there, so only its other rows are compared; an order-tier
   log of a racy run may refuse reconstruction (PPD061) instead. *)
let table_rows_agree =
  Util.qtest ~count:12 "every table row: run = saved content = saved order = daemon"
    QCheck2.Gen.(
      triple (int_range 0 100_000)
        (oneofl [ `Always; `Sometimes; `Never ])
        (int_range 0 1_000))
    (fun (seed, protect, s) ->
      let sched = Runtime.Sched.Random_seed s in
      let src = Gen.parallel ~protect seed in
      with_tiers ~src ~sched (fun ~mpl ~content ~order ->
          let module Q = Serve.Query in
          let body (row : Q.row) out =
            match String.index_opt out '\n' with
            | Some i when row.name <> "race" ->
              String.sub out (i + 1) (String.length out - i - 1)
            | _ -> out
          in
          let direct (row : Q.row) source =
            let buf = Buffer.create 256 in
            let args =
              List.map (fun (p : Q.param) -> (p.key, p.default)) (row.params @ Q.common)
            in
            let ctx =
              { Q.config = Q.config args; pool = None; shared = None; dot = None }
            in
            match row.run ctx args (Serve.Render.buffer_sink buf) source with
            | Ok _ -> Ok (body row (Buffer.contents buf))
            | Error d -> Error d.Lang.Diag.d_code
          in
          let saved log =
            match
              Q.open_source ~policy:Analysis.Eblock.default_policy ~log
                (Lang.Compile.compile src)
            with
            | Ok source -> source
            | Error d -> Alcotest.fail d.Lang.Diag.d_message
          in
          let session = Ppd.Session.run ~sched src in
          let srv = Server.create () in
          let sess = Server.session srv in
          let hc = open_handle srv sess ~mpl ~seg:content in
          let ho = open_handle srv sess ~mpl ~seg:order in
          let daemon (row : Q.row) h =
            let line =
              Server.handle_line srv sess (req ~id:2 row.name [ ("handle", J.Int h) ])
            in
            match J.member "result" (parsed line) with
            | Some r -> Ok (body row (jstr r "output"))
            | None -> Error (error_code_of line)
          in
          let agree =
            List.for_all
              (fun (row : Q.row) ->
                let want = direct row (Q.of_session session) in
                let order_ok got = got = want || got = Error "PPD061" in
                (row.name = "flowback" && Ppd.Session.halt_pid session <> 0)
                || direct row (saved content) = want
                   && daemon row hc = want
                   && order_ok (direct row (saved order))
                   && order_ok (daemon row ho))
              Q.table
          in
          Server.end_session srv sess;
          Server.shutdown srv;
          agree))

let suite =
  ( "serve",
    [
      json_roundtrip;
      Alcotest.test_case "JSON accepts" `Quick test_json_accepts;
      Alcotest.test_case "JSON rejects" `Quick test_json_rejects;
      Alcotest.test_case "RPC parse" `Quick test_rpc_parse;
      Alcotest.test_case "RPC rejects" `Quick test_rpc_rejects;
      Alcotest.test_case "RPC response lines" `Quick test_rpc_lines;
      Alcotest.test_case "gate sheds beyond the queue" `Quick test_gate_shed;
      Alcotest.test_case "gate queues and wakes" `Quick test_gate_queues;
      Alcotest.test_case "gate releases on raise" `Quick
        test_gate_with_slot_releases_on_raise;
      Alcotest.test_case "gate serves in FIFO order" `Quick
        test_gate_fifo_order;
      Alcotest.test_case "gate abandons on deadline" `Quick test_gate_deadline;
      Alcotest.test_case "dispatch basics" `Quick test_dispatch_basics;
      Alcotest.test_case "table row params are typed" `Quick
        test_row_params_typed;
      Alcotest.test_case "registry refcounts" `Quick test_registry_refcounts;
      Alcotest.test_case "open-log quota" `Quick test_open_quota;
      Alcotest.test_case "shared cache across sessions" `Quick
        test_shared_cache_across_sessions;
      Alcotest.test_case "-j4 replay byte-identical" `Quick
        test_replay_parallel_matches_serial;
      Alcotest.test_case "watchdog, degraded, caps" `Quick
        test_watchdog_and_degraded;
      Alcotest.test_case "step quota" `Quick test_step_quota;
      Alcotest.test_case "fsck method" `Quick test_fsck_method;
      Alcotest.test_case "Obs namespace invariant" `Quick
        test_obs_namespace_invariant;
      Alcotest.test_case "deadline answers PPD090" `Quick test_deadline_ppd090;
      Alcotest.test_case "quarantine answers PPD091" `Quick
        test_quarantine_ppd091;
      Alcotest.test_case "quarantine isolates co-tenants" `Quick
        test_quarantine_isolates;
      Alcotest.test_case "memory budget bounds the caches" `Quick
        test_mem_budget;
      Alcotest.test_case "order tier reconstructs once per entry" `Quick
        test_order_reconstructs_once;
      Alcotest.test_case "race graph built once per entry" `Quick
        test_race_graph_once;
      Alcotest.test_case "order-tier failures are not cached" `Quick
        test_order_failures_not_cached;
      Alcotest.test_case "journal, resume, attach" `Quick
        test_journal_resume_attach;
      Alcotest.test_case "stale handles answer PPD092" `Quick
        test_stale_handle_ppd092;
      Alcotest.test_case "failure map and exit table" `Quick test_failure_map;
      Alcotest.test_case "race replays are charged" `Quick test_race_charged;
      table_rows_agree;
      Alcotest.test_case "racy log answers PPD062" `Quick
        test_racy_replay_ppd062;
      Alcotest.test_case "breaker counts PPD062 as hard" `Quick
        test_racy_breaker;
    ] )
