(* The interactive debugger engine (the §3.2.3 user loop). *)

let dbg src = Ppd.Debugger.create (Ppd.Session.run src)

let test_where_and_focus () =
  let d = dbg Workloads.buggy_min in
  let where = Ppd.Debugger.eval d "where" in
  Alcotest.(check bool) "halt shown" true (Util.contains ~sub:"assertion failed" where);
  Alcotest.(check bool) "focus shown" true (Util.contains ~sub:"assert(m == 2)" where);
  Alcotest.(check bool) "has focus" true (Ppd.Debugger.focus d <> None)

let test_why_walks_dependences () =
  let d = dbg Workloads.buggy_min in
  let why = Ppd.Debugger.eval d "why" in
  Alcotest.(check bool) "data edge to the call" true
    (Util.contains ~sub:"data:m" why);
  Alcotest.(check bool) "control edge to entry" true
    (Util.contains ~sub:"ENTRY main" why)

let test_focus_moves () =
  let d = dbg Workloads.buggy_min in
  let out = Ppd.Debugger.eval d "focus 0" in
  Alcotest.(check bool) "entry node" true (Util.contains ~sub:"ENTRY main" out);
  Alcotest.(check bool) "focus updated" true (Ppd.Debugger.focus d = Some 0)

let test_expand_call () =
  let d = dbg Workloads.buggy_min in
  ignore (Ppd.Debugger.eval d "where");
  (* find the call node id from the graph dump, then expand it *)
  let why = Ppd.Debugger.eval d "why" in
  (* "  <- data:m #N m = call#0(a, b, c)" *)
  let call_id =
    String.split_on_char '#' why |> fun parts ->
    List.nth parts 2 |> String.split_on_char ' ' |> List.hd
  in
  let out = Ppd.Debugger.eval d ("expand " ^ call_id) in
  Alcotest.(check bool) "expansion reported" true
    (Util.contains ~sub:"expanded" out);
  let stats = Ppd.Debugger.eval d "stats" in
  Alcotest.(check bool) "two intervals emulated" true
    (Util.contains ~sub:"emulated 2 of 2" stats)

let test_slice () =
  let d = dbg Workloads.buggy_min in
  let out = Ppd.Debugger.eval d "slice" in
  Alcotest.(check bool) "inputs reached" true (Util.contains ~sub:"a = 7" out)

let test_races_command () =
  let d = dbg Workloads.racy_bank in
  let out = Ppd.Debugger.eval d "races" in
  Alcotest.(check bool) "race reported" true (Util.contains ~sub:"balance" out);
  let d2 = dbg Workloads.fixed_bank in
  let out2 = Ppd.Debugger.eval d2 "races" in
  Alcotest.(check bool) "race-free" true (Util.contains ~sub:"race-free" out2);
  let static = Ppd.Debugger.eval d "races static" in
  Alcotest.(check bool) "static report" true
    (Util.contains ~sub:"potential race" static)

let test_proto_command () =
  let d = dbg Workloads.deadlock_ab in
  let out = Ppd.Debugger.eval d "proto" in
  Alcotest.(check bool) "deadlock certificate shown" true
    (Util.contains ~sub:"deadlock" out);
  let d2 = dbg Workloads.rpc in
  let out2 = Ppd.Debugger.eval d2 "proto" in
  Alcotest.(check bool) "clean protocol verdict" true
    (Util.contains ~sub:"deadlock-free" out2);
  Alcotest.(check bool) "help lists proto" true
    (Util.contains ~sub:"proto" (Ppd.Debugger.eval d "help"))

let test_restore_command () =
  let d = dbg Workloads.fixed_bank in
  let out = Ppd.Debugger.eval d "restore 100000" in
  Alcotest.(check bool) "final balance" true (Util.contains ~sub:"balance = 20" out)

let test_whatif_command () =
  let d = dbg "shared int limit = 10;\nfunc main() {\n  var i = 0;\n  var n = 0;\n  while (i < limit) { n = n + i; i = i + 1; }\n  print(n);\n}\n" in
  let out = Ppd.Debugger.eval d "whatif limit=3" in
  Alcotest.(check bool) "what-if output" true (Util.contains ~sub:"output: 3" out);
  let bad = Ppd.Debugger.eval d "whatif nope" in
  Alcotest.(check bool) "parse error surfaced" true
    (Util.contains ~sub:"name=value" bad)

let test_vars_command () =
  let d = dbg Workloads.racy_bank in
  let out = Ppd.Debugger.eval d "vars balance" in
  Alcotest.(check bool) "declared" true (Util.contains ~sub:"shared global" out);
  Alcotest.(check bool) "def sites" true (Util.contains ~sub:"defined at" out)

let test_intervals_and_log () =
  let d = dbg Workloads.fig61 in
  let ivs = Ppd.Debugger.eval d "intervals" in
  Alcotest.(check bool) "three processes" true
    (Util.contains ~sub:"p2#0" ivs);
  let log = Ppd.Debugger.eval d "log 1" in
  Alcotest.(check bool) "p1 log shown" true (Util.contains ~sub:"prelog" log)

(* Ids the run never produced answer one line and leave the focus. *)
let test_unknown_ids () =
  let d = dbg Workloads.fig61 in
  let focus = Ppd.Debugger.focus d in
  List.iter
    (fun cmd ->
      let out = Ppd.Debugger.eval d cmd in
      Alcotest.(check bool)
        (cmd ^ ": no such node") true
        (Util.contains ~sub:"no node" out && not (String.contains out '\n')))
    [ "node 99999"; "node -1"; "focus -3"; "why 123456"; "expand 99999" ];
  Alcotest.(check bool) "focus kept" true (Ppd.Debugger.focus d = focus);
  List.iter
    (fun (cmd, want) ->
      Alcotest.(check string) cmd want (Ppd.Debugger.eval d cmd))
    [
      ("intervals 7", "no process 7 (the log records 3 process(es))");
      ("intervals -1", "no process -1 (the log records 3 process(es))");
    ];
  Alcotest.(check bool) "still answering" true
    (Util.contains ~sub:"p1#0" (Ppd.Debugger.eval d "intervals 1"))

let test_help_and_quit () =
  let d = dbg Workloads.foo3 in
  Alcotest.(check bool) "help lists commands" true
    (Util.contains ~sub:"slice" (Ppd.Debugger.eval d "help"));
  Alcotest.(check bool) "unknown commands get help" true
    (Util.contains ~sub:"unknown command" (Ppd.Debugger.eval d "frobnicate"));
  Alcotest.(check bool) "quit" true (Ppd.Debugger.is_quit "  QUIT ");
  Alcotest.(check bool) "q" true (Ppd.Debugger.is_quit "q");
  Alcotest.(check bool) "not quit" false (Ppd.Debugger.is_quit "quitter")

let suite =
  ( "debugger",
    [
      Alcotest.test_case "where/focus" `Quick test_where_and_focus;
      Alcotest.test_case "why" `Quick test_why_walks_dependences;
      Alcotest.test_case "focus moves" `Quick test_focus_moves;
      Alcotest.test_case "expand" `Quick test_expand_call;
      Alcotest.test_case "slice" `Quick test_slice;
      Alcotest.test_case "races" `Quick test_races_command;
      Alcotest.test_case "proto" `Quick test_proto_command;
      Alcotest.test_case "restore" `Quick test_restore_command;
      Alcotest.test_case "whatif" `Quick test_whatif_command;
      Alcotest.test_case "vars" `Quick test_vars_command;
      Alcotest.test_case "intervals/log" `Quick test_intervals_and_log;
      Alcotest.test_case "help/quit" `Quick test_help_and_quit;
      Alcotest.test_case "unknown ids" `Quick test_unknown_ids;
    ] )
