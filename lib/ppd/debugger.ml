type t = { session : Session.t; mutable focus : int option }

let create session =
  let t = { session; focus = None } in
  t.focus <- Session.error_node session;
  t

let focus t = t.focus

let is_quit line =
  match String.lowercase_ascii (String.trim line) with
  | "quit" | "exit" | "q" -> true
  | _ -> false

let help_text =
  String.concat "\n"
    [
      "commands:";
      "  where                  halt reason and current focus";
      "  focus <node>           move the focus";
      "  why [<node>]           immediate dependences";
      "  slice [<depth>]        backward slice from the focus";
      "  expand <node>          expand a sub-graph or loop node";
      "  graph                  dump the dynamic graph built so far";
      "  node <id>              show one node";
      "  intervals [<pid>]      list log intervals";
      "  log [<pid>]            dump log entries";
      "  races [static]         race detection report (dynamic or static)";
      "  lint [<pass> ...]      static diagnostics (races, deadlocks, ...)";
      "  proto                  communication-protocol analysis (deadlock";
      "                         certificates, must-orderings, orphan comm)";
      "  deadlock               wait-for analysis";
      "  restore <step>         shared store at a machine step";
      "  whatif [p<pid>#<iv>] x=1 ...   what-if replay with overrides";
      "  vars <name>            identifier report from the program database";
      "  stats                  controller statistics";
      "  quit";
    ]

let fmt = Format.asprintf

let node_line t id =
  let g = Controller.graph (Session.controller t.session) in
  fmt "%a" Dyn_graph.pp_node (Dyn_graph.node g id)

let show_where t =
  let halt = Session.explain_halt t.session in
  match t.focus with
  | None -> halt ^ "\nno focus node"
  | Some id -> Printf.sprintf "%s\nfocus: %s" halt (node_line t id)

let show_why t id =
  let ctl = Session.controller t.session in
  let deps = Flowback.dependences ctl id in
  if deps = [] then node_line t id ^ "\n  (no dependences)"
  else
    let g = Controller.graph ctl in
    node_line t id
    :: List.map
         (fun (d : Flowback.dep) ->
           fmt "  <- %s #%d %s"
             (match d.d_kind with
             | Dyn_graph.Data v -> "data:" ^ v.Lang.Prog.vname
             | Dyn_graph.Dparam 0 -> "returns"
             | Dyn_graph.Dparam i -> Printf.sprintf "param:%%%d" i
             | Dyn_graph.Control -> "ctrl"
             | Dyn_graph.Sync -> "sync"
             | Dyn_graph.Flow -> "flow")
             d.d_node
             (Dyn_graph.node g d.d_node).Dyn_graph.nd_label)
         deps
    |> String.concat "\n"

let show_slice t id depth =
  let ctl = Session.controller t.session in
  let deps = Flowback.backward_slice ?max_depth:depth ctl id in
  let g = Controller.graph ctl in
  List.map
    (fun (d : Flowback.dep) ->
      fmt "%*s#%d %s" (2 * d.d_depth) "" d.d_node
        (Dyn_graph.node g d.d_node).Dyn_graph.nd_label)
    deps
  |> String.concat "\n"

let parse_overrides words =
  List.fold_left
    (fun acc w ->
      match acc with
      | Error _ -> acc
      | Ok l -> (
        match String.index_opt w '=' with
        | Some i -> (
          let name = String.sub w 0 i in
          let v = String.sub w (i + 1) (String.length w - i - 1) in
          match int_of_string_opt v with
          | Some n -> Ok ((name, n) :: l)
          | None -> Error (Printf.sprintf "bad value in %s" w))
        | None -> Error (Printf.sprintf "expected name=value, got %s" w)))
    (Ok []) words
  |> Result.map List.rev

let parse_target w =
  (* p<pid>#<iv> *)
  if String.length w >= 4 && w.[0] = 'p' then
    match String.index_opt w '#' with
    | Some i -> (
      match
        ( int_of_string_opt (String.sub w 1 (i - 1)),
          int_of_string_opt (String.sub w (i + 1) (String.length w - i - 1)) )
      with
      | Some pid, Some iv -> Some (pid, iv)
      | _ -> None)
    | None -> None
  else None

let show_whatif t words =
  let target, overrides_words =
    match words with
    | w :: rest when parse_target w <> None -> (parse_target w, rest)
    | rest -> (None, rest)
  in
  let pid, iv_id =
    match target with Some (pid, iv) -> (pid, Some iv) | None -> (0, None)
  in
  match parse_overrides overrides_words with
  | Error e -> e
  | Ok overrides -> (
    match
      Controller.what_if ?iv_id (Session.controller t.session) ~pid ~overrides
    with
    | Error e -> e
    | Ok (iv_id, o) ->
      let lines =
        [
          Printf.sprintf "what-if on p%d#%d: %d events" pid iv_id
            (List.length o.Emulator.events);
        ]
        @ (match o.Emulator.fault with
          | Some f -> [ "halted: " ^ f ]
          | None -> [])
        @
        if o.Emulator.output = "" then []
        else [ "output: " ^ String.trim o.Emulator.output ]
      in
      String.concat "\n" lines)

let show_intervals t pid =
  let p = Session.prog t.session in
  let log = Session.log t.session in
  let pids =
    match pid with Some pid -> [ pid ] | None -> List.init log.Trace.Log.nprocs Fun.id
  in
  List.concat_map
    (fun pid ->
      let ivs =
        Trace.Log.intervals
          ~stmt_fid:(fun sid -> p.Lang.Prog.stmt_fid.(sid))
          log ~pid
      in
      Array.to_list ivs
      |> List.map (fun (iv : Trace.Log.interval) ->
             Printf.sprintf "p%d#%d %s seq[%d,%s)%s" pid iv.iv_id
               (fmt "%a" Trace.Log.pp_block iv.iv_block)
               iv.iv_seq_start
               (match iv.iv_seq_end with
               | Some e -> string_of_int e
               | None -> "open")
               (match iv.iv_parent with
               | Some par -> Printf.sprintf " in #%d" par
               | None -> "")))
    pids
  |> String.concat "\n"

let eval t line =
  let words =
    String.split_on_char ' ' (String.trim line)
    |> List.filter (fun w -> w <> "")
  in
  let int_arg = function w :: _ -> int_of_string_opt w | [] -> None in
  let with_node args k =
    match (int_arg args, t.focus) with
    | Some id, _ | None, Some id -> k id
    | None, None -> "no focus node; use `focus <node>`"
  in
  if is_quit line then "bye"
  else
    match words with
    | [] | [ "help" ] -> help_text
    | "where" :: _ -> show_where t
    | "focus" :: rest -> (
      match int_arg rest with
      | Some id ->
        t.focus <- Some id;
        node_line t id
      | None -> "usage: focus <node>")
    | "why" :: rest -> with_node rest (fun id -> show_why t id)
    | "slice" :: rest ->
      with_node [] (fun id -> show_slice t id (int_arg rest))
    | "expand" :: rest ->
      with_node rest (fun id ->
          match Controller.expand_subgraph (Session.controller t.session) id with
          | Some _ -> "expanded:\n" ^ show_why t id
          | None -> "nothing to expand (not a collapsed call/loop node)")
    | "graph" :: _ ->
      fmt "%a" Dyn_graph.pp (Controller.graph (Session.controller t.session))
    | "node" :: rest -> with_node rest (fun id -> node_line t id)
    | "intervals" :: rest -> show_intervals t (int_arg rest)
    | "log" :: rest -> (
      let log = Session.log t.session in
      let p = Session.prog t.session in
      match int_arg rest with
      | Some pid when pid >= 0 && pid < log.Trace.Log.nprocs ->
        Array.to_list log.Trace.Log.entries.(pid)
        |> List.map (fun e -> fmt "%a" (Trace.Log.pp_entry p) e)
        |> String.concat "\n"
      | _ -> fmt "%a" (Trace.Log.pp p) log)
    | "races" :: "static" :: _ ->
      let p = Session.prog t.session in
      fmt "%a" (Analysis.Static_race.pp_report p) (Analysis.Static_race.analyze p)
    | "lint" :: rest ->
      let p = Session.prog t.session in
      let only = match rest with [] -> None | names -> Some names in
      (match Analysis.Lint.run ?only p with
      | diags -> fmt "%a" Lang.Diag.pp_human diags
      | exception Analysis.Lint.Unknown_pass n ->
        Printf.sprintf "unknown lint pass '%s'; available: %s" n
          (String.concat ", " Analysis.Lint.pass_names))
    | "races" :: _ ->
      let pd, st = Controller.race (Session.controller t.session) in
      fmt "%a" (Race.pp_report pd) st.Race.races
    | "proto" :: _ ->
      let p = Session.prog t.session in
      fmt "%a" Analysis.Proto.pp (Analysis.Proto.analyze p)
    | "deadlock" :: _ ->
      fmt "%a" (Deadlock.pp (Session.prog t.session)) (Session.deadlock t.session)
    | "restore" :: rest -> (
      match int_arg rest with
      | None -> "usage: restore <step>"
      | Some step ->
        let p = Session.prog t.session in
        let snap = Restore.shared_at p (Session.log t.session) ~step in
        Array.to_list p.Lang.Prog.globals
        |> List.mapi (fun slot (v : Lang.Prog.var) ->
               Printf.sprintf "%s = %s" v.vname
                 (Runtime.Value.to_string snap.Restore.globals.(slot)))
        |> String.concat "\n")
    | "whatif" :: rest -> show_whatif t rest
    | "vars" :: name :: _ ->
      let p = Session.prog t.session in
      let db = Analysis.Progdb.build p in
      fmt "%a" (Analysis.Progdb.pp_var_report db) name
    | "stats" :: _ ->
      let st = Controller.stats (Session.controller t.session) in
      Printf.sprintf "emulated %d of %d intervals (%d replay steps)%s"
        st.Controller.replays st.Controller.intervals_total
        st.Controller.replay_steps
        (if st.Controller.holes > 0 then
           Printf.sprintf ", %d hole(s)" st.Controller.holes
         else "")
    | cmd :: _ -> Printf.sprintf "unknown command %s\n%s" cmd help_text
