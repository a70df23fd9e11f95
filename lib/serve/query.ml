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

let flowback ?shared ~config sink ~depth ~dot src =
  header sink src;
  answer ?shared ~config src (fun ctl ->
      let pid =
        match src.origin with Saved _ -> 0 | Run s -> Ppd.Session.halt_pid s
      in
      let root =
        if nprocs src = 0 then None
        else Ppd.Controller.last_event_node ctl ~pid
      in
      Render.flowback_report sink ~depth ~dot ctl root)
  |> Result.map snd

let replay ?pool ?shared ~config sink ~dump src =
  header sink src;
  answer ?pool ?shared ~config src (fun ctl ->
      Render.replay_report sink ~dump ~nprocs:(nprocs src) ctl)
  |> Result.map snd

let race ?shared ~config sink src =
  answer ?shared ~config src (fun ctl ->
      let pd, st = Ppd.Controller.race ctl in
      Format.fprintf sink.Render.ppf "%a@." (Ppd.Race.pp_report pd)
        st.Ppd.Race.races;
      st)
