(* Benchmark inputs and the answer oracle: the MPL programs, the
   execution phase that records them (what `ppd log --save` does), the
   requests the client sends, and the reference answers every reply is
   checked against. *)

(* The analysis policy `open` uses when a request names none (inline 0,
   loops 0): logs must be recorded under the same e-block partition the
   daemon will debug them with. *)
let policy =
  { Analysis.Eblock.leaf_inline_max_stmts = 0; loop_block_min_body = 0 }

let max_steps = 5_000_000

(* Every recording runs round-robin with quantum 3 (the default). The
   seed varies the data instead (see [ledger]): a random schedule
   decides which worker writes [total] last, and so whether a flowback
   replays one worker's interval or four, and each quantum gives a log
   of another density — seeds would measure different amounts of work.
   Order-tier logs store the schedule so reconstruction replays it. *)
let sched = Runtime.Sched.default

type tier = Content | Order

let tier_name = function Content -> "content" | Order -> "order"

let log_tier = function
  | Content -> Trace.Log.T_content
  | Order ->
    Trace.Log.T_order
      {
        Trace.Log.o_sched = Runtime.Sched.string_of_policy sched;
        o_engine = "vm";
        o_max_steps = max_steps;
      }

(* The ledger: [workers] processes each run [rounds] rounds; every
   round calls [mix] (one nested e-block interval) and folds its result
   into the lock-protected [total] and [hist]. Race-free, and [main]'s
   assert is wrong, so flowback from the fault crosses into every
   worker. [salt] seeds every worker's accumulator: it changes each
   mixed value and histogram slot, not the amount of work. *)
let ledger ~salt ~workers ~rounds =
  let spawns =
    String.concat ""
      (List.init workers (fun i ->
           Printf.sprintf "  var p%d = spawn worker(%d, %d);\n" i
             ((salt * workers) + i) rounds))
  in
  let joins =
    String.concat ""
      (List.init workers (fun i -> Printf.sprintf "  join(p%d);\n" i))
  in
  Printf.sprintf
    {|
shared int hist[64];
shared int total = 0;
sem lock = 1;

func mix(x, r) {
  var h = x * 31 + r * 17 + 7;
  h = h - (h / 64) * 64;
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
%s%s  assert(total == 0);
}
|}
    spawns joins

type program = { name : string; src : string }

let ledger_program ~salt ~workers ~rounds =
  {
    name = Printf.sprintf "ledger-%dx%d" workers rounds;
    src = ledger ~salt ~workers ~rounds;
  }

let fib_program n = { name = Printf.sprintf "fib-%d" n; src = Workloads.fib n }

(* ------------------------------------------------------------------ *)
(* Files.                                                               *)
(* ------------------------------------------------------------------ *)

(* Everything a run writes lives under one directory of the current
   directory, removed when the run ends. *)
let make_workdir () =
  let root = ".ppdbench" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "run-%d" (Unix.getpid ())) in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  dir

let remove_workdir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir;
  match Sys.readdir ".ppdbench" with
  | [||] -> Sys.rmdir ".ppdbench"
  | _ -> ()
  | exception Sys_error _ -> ()

let write_file path s =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc s)

let mpl_path dir (p : program) = Filename.concat dir (p.name ^ ".mpl")

let log_path dir (p : program) tier =
  Filename.concat dir (Printf.sprintf "%s.%s.seg" p.name (tier_name tier))

(* ------------------------------------------------------------------ *)
(* The execution phase.                                                 *)
(* ------------------------------------------------------------------ *)

type recording = {
  r_program : string;
  r_tier : tier;
  r_steps : int;
  r_bytes : int;
  r_entries : int;
  r_ns : int;  (** logged run plus page writes; excludes compile/analysis *)
}

(* Run the program with the logger streaming its entries into a segment
   file, as `ppd log --save` does. Returns the in-memory log too. *)
let record ~tier (p : program) eb path =
  let t0 = Obs.now_ns () in
  let ltier = log_tier tier in
  let w = Store.Segment.Writer.to_file ~tier:ltier path in
  let logger =
    Trace.Logger.create ~sink:(Store.Segment.Writer.sink w) ~tier:ltier eb
  in
  let m =
    Runtime.Machine.create ~sched ~max_steps
      ~hooks:(Trace.Logger.factory logger) eb.Analysis.Eblock.prog
  in
  ignore (Runtime.Machine.run m);
  let log = Trace.Logger.finish logger in
  Store.Segment.Writer.close w;
  let r_ns = Obs.now_ns () - t0 in
  ( {
      r_program = p.name;
      r_tier = tier;
      r_steps = Runtime.Machine.nsteps m;
      r_bytes = Store.Segment.Writer.bytes_written w;
      r_entries = Trace.Log.entry_count log;
      r_ns;
    },
    log )

let analyze src = Analysis.Eblock.analyze ~policy (Lang.Compile.compile src)

(* A saved log is sound when every frame checks out and it holds every
   entry the logger produced. *)
let verify_recording path (r : recording) =
  let v = Store.Segment.verify path in
  v.Store.Segment.vr_damage = [] && v.Store.Segment.vr_records = r.r_entries

(* ------------------------------------------------------------------ *)
(* Requests and reference answers.                                      *)
(* ------------------------------------------------------------------ *)

type request = Flowback of int | Replay | Race

let request_name = function
  | Flowback d -> Printf.sprintf "flowback-%d" d
  | Replay -> "replay"
  | Race -> "race"

let request_line ~id ~handle req =
  let meth, depth =
    match req with
    | Flowback d -> ("flowback", Printf.sprintf {|,"depth":%d|} d)
    | Replay -> ("replay", "")
    | Race -> ("race", "")
  in
  Printf.sprintf {|{"id":%d,"method":"%s","params":{"handle":%d%s}}|} id meth
    handle depth

let open_line ~id ~log ~program =
  Printf.sprintf {|{"id":%d,"method":"open","params":{"log":%S,"program":%S}}|}
    id log program

(* The answer text of a flowback/replay request over a controller, as
   the daemon renders it. Flowback builds what its traversal needs;
   replay builds every interval. *)
let render req ctl ~path ~nprocs =
  let buf = Buffer.create 1024 in
  let sink = Serve.Render.buffer_sink buf in
  Serve.Render.header sink ~path ~version:2 ~nprocs;
  (match req with
  | Flowback depth ->
    let root =
      if nprocs = 0 then None else Ppd.Controller.last_event_node ctl ~pid:0
    in
    Serve.Render.flowback_report sink ~depth ~dot:None ctl root
  | Replay -> Serve.Render.replay_report sink ~dump:false ~nprocs ctl
  | Race -> invalid_arg "Fixture.render: race answers come from race_text");
  Buffer.contents buf

let race_text pd (st : Ppd.Race.stats) =
  Format.asprintf "%a@." (Ppd.Race.pp_report pd) st.Ppd.Race.races

(* The intervals a request replays, in the order a serial controller
   assembles them, read from the emulator's replay spans. *)
let replayed_keys f =
  let was_on = Obs.enabled () in
  Obs.enable ();
  Obs.reset ();
  let v = f () in
  let keys =
    List.filter_map
      (fun (sp : Obs.span) ->
        match sp.Obs.sp_arg with
        | Some a when sp.Obs.sp_cat = "replay" ->
          Scanf.sscanf_opt a "p%d#%d%!" (fun pid iv -> (pid, iv))
        | _ -> None)
      (Obs.spans ())
  in
  Obs.reset ();
  if not was_on then Obs.disable ();
  (v, keys)

type reference = {
  answer : string;
  keys : (int * int) list;  (** intervals the request replays on a cold cache *)
}

(* Reference answer: the in-memory content log through a serial
   controller with no pool and no fragment cache. [path] is the log the
   daemon is asked about; its name is part of the header line, and an
   order-tier log must answer exactly like its content twin. *)
let reference eb (log : Trace.Log.t) ~path req =
  let answer, keys =
    replayed_keys (fun () ->
        let ctl = Ppd.Controller.start eb log in
        match req with
        | Race ->
          let pd = Ppd.Controller.pardyn ctl in
          race_text pd (Ppd.Race.detect pd)
        | Flowback _ | Replay -> render req ctl ~path ~nprocs:log.Trace.Log.nprocs)
  in
  { answer; keys }

(* The [output] of a daemon response, or the reason there is none. *)
let response_output line =
  match Serve.Json.parse line with
  | Error e -> Error ("unparsable response: " ^ e)
  | Ok v -> (
    match (Serve.Json.member "result" v, Serve.Json.member "error" v) with
    | Some r, _ -> (
      match Option.bind (Serve.Json.member "output" r) Serve.Json.to_str with
      | Some out -> Ok (out, r)
      | None -> Ok ("", r))
    | None, Some e -> Error ("error response: " ^ Serve.Json.to_string e)
    | None, None -> Error "response without result")
