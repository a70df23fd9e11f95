(* Shared rendering for the debugging answers (CLI stdout and daemon
   responses). The format strings here are the only copy; the
   cram suite pins the bytes. *)

type sink = { out : string -> unit; ppf : Format.formatter }

let stdout_sink () = { out = print_string; ppf = Format.std_formatter }

let buffer_sink b =
  { out = Buffer.add_string b; ppf = Format.formatter_of_buffer b }

let pf sink fmt = Printf.ksprintf sink.out fmt

let header sink ~path ~version ~nprocs =
  pf sink "debugging saved log %s (v%d, %d process(es))\n" path version nprocs

let dot_dump sink ~dot ctl =
  match dot with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        Out_channel.output_string oc
          (Ppd.Dyn_graph.to_dot (Ppd.Controller.graph ctl)));
    pf sink "dynamic graph written to %s\n" path

let flowback_report sink ~depth ~dot ctl root =
  (match root with
  | None -> sink.out "no events to debug\n"
  | Some root ->
    Format.fprintf sink.ppf "%a@."
      (Ppd.Flowback.pp_explain ~max_depth:depth ctl)
      root);
  let st = Ppd.Controller.stats ctl in
  (* a rootless clean run keeps its historical one-line output; once
     there is a root or a hole, the full report follows *)
  if root <> None || st.Ppd.Controller.holes > 0 then begin
    Ppd.Flowback.pp_holes ctl sink.ppf;
    pf sink "emulated %d of %d log intervals (%d replay steps)%s\n"
      st.Ppd.Controller.replays st.Ppd.Controller.intervals_total
      st.Ppd.Controller.replay_steps
      (if st.Ppd.Controller.holes > 0 then
         Printf.sprintf ", %d hole(s)" st.Ppd.Controller.holes
       else "")
  end;
  dot_dump sink ~dot ctl

let replay_report sink ~dump ~nprocs ctl =
  let keys =
    List.concat
      (List.init nprocs (fun pid ->
           List.init
             (Array.length (Ppd.Controller.intervals ctl ~pid))
             (fun iv_id -> (pid, iv_id))))
  in
  Ppd.Controller.build_intervals_par ctl keys;
  let st = Ppd.Controller.stats ctl in
  let nodes, edges = Ppd.Controller.graph_size ctl in
  pf sink
    "replayed %d of %d log intervals (%d replay steps); graph: %d nodes, %d \
     edges%s\n"
    st.Ppd.Controller.replays st.Ppd.Controller.intervals_total
    st.Ppd.Controller.replay_steps nodes edges
    (if st.Ppd.Controller.holes > 0 then
       Printf.sprintf ", %d hole(s)" st.Ppd.Controller.holes
     else "");
  Ppd.Flowback.pp_holes ctl sink.ppf;
  if dump then
    Format.fprintf sink.ppf "%a@." Ppd.Dyn_graph.pp (Ppd.Controller.graph ctl)

let restore_report sink (prog : Lang.Prog.t) ~at_step (snap : Ppd.Restore.snapshot) =
  pf sink "shared store at step %s:\n"
    (if at_step = max_int then "end" else string_of_int at_step);
  Array.iteri
    (fun slot v ->
      pf sink "  %s = %s\n" prog.Lang.Prog.globals.(slot).vname
        (Runtime.Value.to_string v))
    snap.Ppd.Restore.globals

let whatif_report sink ~pid ~iv_id ~sets (o : Ppd.Emulator.outcome) =
  pf sink "what-if replay of process %d interval %d with %s:\n" pid iv_id
    (if sets = [] then "no changes"
     else
       String.concat ", "
         (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) sets));
  (match o.Ppd.Emulator.fault with
  | Some f -> pf sink "  halted: %s\n" f
  | None -> pf sink "  completed (%d events)\n" (List.length o.Ppd.Emulator.events));
  if o.Ppd.Emulator.output <> "" then begin
    sink.out "  output:\n";
    List.iter
      (fun l -> pf sink "    %s\n" l)
      (String.split_on_char '\n' (String.trim o.Ppd.Emulator.output))
  end
