(* E-block replay on the product's stepper (the bytecode VM) against the
   AST oracle: the same events, steps, output, fault, overrun and
   postlog mismatches, or the same [Replay_mismatch] text raised after
   the same events. *)

module L = Trace.Log

type events = (int * Runtime.Event.t) list

type summary =
  | Done of {
      events : events;
      steps : int;
      output : string;
      fault : string option;
      overrun : bool;
      postlog_mismatches : string list;
    }
  | Mismatch of events * string  (** delivered events, message *)
  | Raised of events * string  (** any other exception *)

let capture replay =
  let seen = ref [] in
  let on_event ~seq ev = seen := (seq, ev) :: !seen in
  match replay ~on_event with
  | s -> s
  | exception Ppd.Emulator.Replay_mismatch m -> Mismatch (List.rev !seen, m)
  | exception Emulator.Replay_mismatch m -> Mismatch (List.rev !seen, m)
  | exception e -> Raised (List.rev !seen, Printexc.to_string e)

let product ?overrides ?validate eb log iv =
  capture (fun ~on_event ->
      let o =
        Ppd.Emulator.replay ~on_event ?overrides ?validate eb log ~interval:iv
      in
      Done
        {
          events = o.events;
          steps = o.steps;
          output = o.output;
          fault = o.fault;
          overrun = o.overrun;
          postlog_mismatches = o.postlog_mismatches;
        })

let oracle ?overrides ?validate eb log iv =
  capture (fun ~on_event ->
      let o = Emulator.replay ~on_event ?overrides ?validate eb log ~interval:iv in
      Done
        {
          events = o.events;
          steps = o.steps;
          output = o.output;
          fault = o.fault;
          overrun = o.overrun;
          postlog_mismatches = o.postlog_mismatches;
        })

let pp_events b evs =
  List.iter
    (fun (seq, ev) ->
      Printf.bprintf b "    %d: %s\n" seq
        (Format.asprintf "%a" Runtime.Event.pp ev))
    evs

let describe s =
  let b = Buffer.create 256 in
  (match s with
  | Done d ->
    Printf.bprintf b
      "  done: %d step(s), fault %s, overrun %b, output %S, postlog [%s]\n"
      d.steps
      (Option.value d.fault ~default:"none")
      d.overrun d.output
      (String.concat "; " d.postlog_mismatches);
    pp_events b d.events
  | Mismatch (evs, m) ->
    Printf.bprintf b "  Replay_mismatch %S after:\n" m;
    pp_events b evs
  | Raised (evs, m) ->
    Printf.bprintf b "  raised %s after:\n" m;
    pp_events b evs);
  Buffer.contents b

(* Replay every interval of every process of [log] with both steppers:
   validated, and once per [whatif] override set as a what-if replay.
   [Ok n] counts the replays compared; [Error] describes the first
   difference. *)
let check ?(whatif = []) eb (log : L.t) =
  let n = ref 0 in
  let first = ref None in
  let one what ?overrides ?validate iv =
    if !first = None then begin
      incr n;
      let p = product ?overrides ?validate eb log iv
      and o = oracle ?overrides ?validate eb log iv in
      if p <> o then
        first :=
          Some
            (Printf.sprintf "%s replay of p%d interval %d differs\nvm:\n%soracle:\n%s"
               what iv.L.iv_pid iv.L.iv_id (describe p) (describe o))
    end
  in
  for pid = 0 to log.L.nprocs - 1 do
    Array.iter
      (fun iv ->
        one "validated" iv;
        List.iter
          (fun overrides -> one "what-if" ~overrides ~validate:false iv)
          whatif)
      (L.intervals log ~pid)
  done;
  match !first with None -> Ok !n | Some e -> Error e
