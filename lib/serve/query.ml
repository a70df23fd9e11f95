(* The one query path: open a saved log or take a finished run's, answer
   under the one failure map, render through Render. The CLI and the
   daemon both call it, so every message below is the only copy, and
   names no front end's flag or parameter. *)

let error code message =
  {
    Lang.Diag.d_code = code;
    d_severity = Lang.Diag.Sev_error;
    d_loc = Lang.Loc.none;
    d_message = message;
    d_related = [];
  }

let diagnostic_of_exn = function
  | Store.Segment.Unreadable { path; reason } ->
    Some (error "PPD050" (Printf.sprintf "unreadable log %s: %s" path reason))
  | Ppd.Controller.Replay_overrun { pid; iv_id; budget } ->
    Some
      (error "PPD060"
         (Printf.sprintf
            "replay watchdog: process %d interval %d exhausted the %d-step \
             budget (raise the replay-step budget, or debug around it in \
             degraded mode)"
            pid iv_id budget))
  | Ppd.Reconstruct.Divergence { reason } ->
    Some
      (error "PPD061"
         (Printf.sprintf
            "order-log reconstruction diverged: %s (the program text, \
             analysis flags and build must match the recording run)"
            reason))
  | Ppd.Emulator.Replay_mismatch reason ->
    Some
      (error "PPD062"
         (Printf.sprintf
            "e-block replay diverged from the log: %s (the recorded \
             execution may contain a data race; replay is faithful only for \
             race-free runs \u{2014} `ppd race` checks)"
            reason))
  | Fault.Injected { site; kind } ->
    Some
      (error "PPD086"
         (Printf.sprintf
            "injected %s fault at %s aborted the query (debug around it in \
             degraded mode)"
            (Fault.kind_to_string kind) site))
  | Resil.Deadline.Expired ->
    Some
      (error Rpc.err_deadline
         "deadline exceeded: the query ran out of time at an e-block replay \
          boundary (raise the deadline, or resubmit)")
  | _ -> None

let guard f =
  match f () with
  | v -> Ok v
  | exception e -> (
    let bt = Printexc.get_raw_backtrace () in
    match diagnostic_of_exn e with
    | Some d -> Error d
    | None -> Printexc.raise_with_backtrace e bt)

let exit_table =
  [
    (Rpc.err_bad_params, 1);
    ("PPD086", 2);
    ("PPD050", 6);
    ("PPD060", 7);
    (Rpc.err_deadline, 7);
    ("PPD061", 8);
    ("PPD062", 8);
  ]

type origin = Saved of string | Run of Ppd.Session.t

type source = {
  origin : origin;
  eb : Analysis.Eblock.t;
  reader : Store.Segment.reader;
}

let open_source ?budget ~policy ~log prog =
  let eb = Analysis.Eblock.analyze ~policy prog in
  guard (fun () ->
      { origin = Saved log; eb; reader = Store.Segment.open_file ?budget log })

let of_session s =
  {
    origin = Run s;
    eb = Ppd.Session.eblocks s;
    reader = Store.Segment.of_log (Ppd.Session.log s);
  }

let nprocs src = Store.Segment.nprocs src.reader

let header sink src =
  match src.origin with
  | Saved log ->
    Render.header sink ~path:log ~version:Store.Segment.format_version
      ~nprocs:(nprocs src)
  | Run s -> sink.Render.out (Ppd.Session.explain_halt s ^ "\n")

(* A fresh controller, the report: the shape of every answer. *)
let answer ?pool ?shared ~config src report =
  guard (fun () ->
      let ctl =
        Ppd.Controller.start_paged ?pool ?shared ~config src.eb src.reader
      in
      let v = report ctl in
      (v, Ppd.Controller.stats ctl))

let race ?shared ~config sink src =
  answer ?shared ~config src (fun ctl ->
      let pd, st = Ppd.Controller.race ctl in
      Format.fprintf sink.Render.ppf "%a@." (Ppd.Race.pp_report pd)
        st.Ppd.Race.races;
      Ppd.Flowback.pp_holes ctl sink.Render.ppf;
      st)

(* ------------------------------------------------------------------ *)
(* The command table.                                                   *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Flag of bool | Assigns of (string * int) list

type param = { key : string; default : value; docv : string; doc : string }

type args = (string * value) list

let param key default ~docv doc = { key; default; docv; doc }

let int_arg args key =
  match List.assoc key args with Int i -> i | _ -> invalid_arg key

let flag_arg args key =
  match List.assoc key args with Flag b -> b | _ -> invalid_arg key

let assigns_arg args key =
  match List.assoc key args with Assigns l -> l | _ -> invalid_arg key

let kebab key =
  let b = Buffer.create (String.length key + 4) in
  String.iter
    (fun c ->
      if c >= 'A' && c <= 'Z' then begin
        Buffer.add_char b '-';
        Buffer.add_char b (Char.lowercase_ascii c)
      end
      else Buffer.add_char b c)
    key;
  Buffer.contents b

let common =
  [
    param "degraded" (Flag false) ~docv:""
      "Degrade instead of aborting: a damaged or unreplayable log interval \
       becomes an explicit hole node in the dynamic graph, and answers \
       report the unavailable history instead of failing.";
    param "maxReplaySteps"
      (Int Ppd.Controller.default_config.Ppd.Controller.max_replay_steps)
      ~docv:"N"
      "Watchdog budget per replayed interval: a replay exceeding N steps is \
       PPD060 (exit 7), or a hole in degraded mode.";
  ]

let config args =
  {
    Ppd.Controller.default_config with
    degraded = flag_arg args "degraded";
    max_replay_steps = int_arg args "maxReplaySteps";
  }

type ctx = {
  config : Ppd.Controller.config;
  pool : Exec.Pool.t option;
  shared : Ppd.Fragcache.t option;
  dot : string option;
}

type answer = {
  stats : Ppd.Controller.stats;
  fields : (string * int) list;
  findings : Lang.Diag.diagnostic list;
}

type row = {
  name : string;
  doc : string;
  params : param list;
  run :
    ctx -> args -> Render.sink -> source -> (answer, Lang.Diag.diagnostic) result;
}

let plain stats = { stats; fields = []; findings = [] }

(* {!header}, then [report] over a fresh controller: the shape of every
   row but race. *)
let reported ?pool c sink src report =
  header sink src;
  answer ?pool ?shared:c.shared ~config:c.config src report
  |> Result.map (fun (_, stats) -> plain stats)

(* A race as the finding the CLI's JSON report lists. *)
let race_finding prog (r : Ppd.Race.race) =
  {
    Lang.Diag.d_code =
      (match r.Ppd.Race.rc_kind with
      | Ppd.Race.Write_write -> "PPD011"
      | Ppd.Race.Read_write -> "PPD010");
    d_severity = Lang.Diag.Sev_warning;
    d_loc = Lang.Loc.none;
    d_message = Format.asprintf "%a" (Ppd.Race.pp_race prog) r;
    d_related = [];
  }

let table =
  [
    {
      name = "flowback";
      doc =
        "Explain the halt by flowback analysis over the dynamic dependence \
         graph, from the last event of the halted process.";
      params = [ param "depth" (Int 4) ~docv:"N" "Dependence tree depth." ];
      run =
        (fun c args sink src ->
          (* replays only what the walk demands, on this domain: no pool *)
          reported c sink src (fun ctl ->
              let pid =
                match src.origin with
                | Saved _ -> 0
                | Run s -> Ppd.Session.halt_pid s
              in
              let root =
                if nprocs src = 0 then None
                else Ppd.Controller.last_event_node ctl ~pid
              in
              Render.flowback_report sink ~depth:(int_arg args "depth")
                ~dot:c.dot ctl root));
    };
    {
      name = "replay";
      doc =
        "Batch-emulate every log interval (across the domain pool when \
         there is one) and assemble the full dynamic dependence graph. \
         Output is byte-identical for every pool size.";
      params =
        [
          param "dump" (Flag false) ~docv:""
            "Print the assembled dynamic graph (deterministic dump).";
        ];
      run =
        (fun c args sink src ->
          reported ?pool:c.pool c sink src (fun ctl ->
              Render.replay_report sink ~dump:(flag_arg args "dump")
                ~nprocs:(nprocs src) ctl));
    };
    {
      name = "race";
      doc =
        "Detect data races over one execution's log (\u{00A7}6.4), with \
         READ/WRITE sets from e-block replay.";
      params = [];
      run =
        (fun c _args sink src ->
          race ?shared:c.shared ~config:c.config sink src
          |> Result.map (fun (st, stats) ->
                 {
                   stats;
                   fields =
                     [
                       ("races", List.length st.Ppd.Race.races);
                       ("pairsExamined", st.Ppd.Race.pairs_examined);
                     ];
                   findings =
                     List.map
                       (race_finding src.eb.Analysis.Eblock.prog)
                       st.Ppd.Race.races;
                 }));
    };
    {
      name = "restore";
      doc = "Reconstruct the shared store from postlogs (\u{00A7}5.7).";
      params =
        [
          param "atStep" (Int max_int) ~docv:"N"
            "Machine step to restore to (default: end of execution).";
        ];
      run =
        (fun c args sink src ->
          reported c sink src (fun ctl ->
              let prog = Ppd.Controller.prog ctl in
              let at_step = int_arg args "atStep" in
              Render.restore_report sink prog ~at_step
                (Ppd.Restore.shared_at prog (Ppd.Controller.content_log ctl)
                   ~step:at_step)));
    };
    {
      name = "whatif";
      doc =
        "Re-execute one log interval with modified values (\u{00A7}5.7's \
         experiment) and report the divergent behaviour.";
      params =
        [
          param "pid" (Int 0) ~docv:"PID" "Process id.";
          param "interval" (Int (-1)) ~docv:"N"
            "Log interval id (default: the process's root block).";
          param "set" (Assigns []) ~docv:"VAR=N"
            "Force a variable to a value at the restored prelog state \
             (repeatable).";
        ];
      run =
        (fun c args sink src ->
          let pid = int_arg args "pid" and sets = assigns_arg args "set" in
          let iv = int_arg args "interval" in
          let iv_id = if iv >= 0 then Some iv else None in
          header sink src;
          match
            answer ?shared:c.shared ~config:c.config src (fun ctl ->
                Ppd.Controller.what_if ?iv_id ctl ~pid ~overrides:sets)
          with
          | Ok (Ok (iv_id, o), stats) ->
            Render.whatif_report sink ~pid ~iv_id ~sets o;
            Ok (plain stats)
          | Ok (Error reason, _) -> Error (error Rpc.err_bad_params reason)
          | Error d -> Error d);
    };
  ]

let find name = List.find_opt (fun r -> r.name = name) table
