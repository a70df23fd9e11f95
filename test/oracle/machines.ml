module M = Runtime.Machine
module IM = Interp_machine

type run = {
  halt : M.halt;
  output : string;
  nsteps : int;
  seqs : int array;
  globals : Runtime.Value.t array;
}

let globals (prog : Lang.Prog.t) read =
  Array.mapi (fun slot _ -> read slot) prog.global_inits

let vm ?sched ?max_steps ?breakpoints ?hooks prog =
  let m = M.create ?sched ?max_steps ?breakpoints ?hooks prog in
  let halt = M.run m in
  {
    halt;
    output = M.output m;
    nsteps = M.nsteps m;
    seqs = Array.init (M.nprocs m) (M.proc_seq m);
    globals = globals prog (M.read_global m);
  }

let interp ?sched ?max_steps ?breakpoints ?hooks prog =
  let m = IM.create ?sched ?max_steps ?breakpoints ?hooks prog in
  let halt = IM.run m in
  {
    halt;
    output = IM.output m;
    nsteps = IM.nsteps m;
    seqs = Array.init (IM.nprocs m) (IM.proc_seq m);
    globals = globals prog (IM.read_global m);
  }

let halt_name = function
  | M.Finished -> "finished"
  | M.Deadlock _ -> "deadlock"
  | M.Fault { msg; _ } -> "fault: " ^ msg
  | M.Breakpoint { sid; _ } -> Printf.sprintf "breakpoint at s%d" sid
  | M.Out_of_fuel -> "out of fuel"

let first_index n differs =
  let rec go i =
    if i >= n then None else if differs i then Some i else go (i + 1)
  in
  go 0

let diff a b =
  let some fmt = Printf.ksprintf Option.some fmt in
  let differs x y i = x.(i) <> y.(i) in
  if a.halt <> b.halt then
    some "halt differs: %s vs %s" (halt_name a.halt) (halt_name b.halt)
  else if a.output <> b.output then
    some "output differs:\n--- interp\n%s--- vm\n%s" a.output b.output
  else if a.nsteps <> b.nsteps then
    some "nsteps differs: %d vs %d" a.nsteps b.nsteps
  else if Array.length a.seqs <> Array.length b.seqs then
    some "nprocs differs: %d vs %d" (Array.length a.seqs) (Array.length b.seqs)
  else
    match first_index (Array.length a.seqs) (differs a.seqs b.seqs) with
    | Some pid ->
      some "proc %d event count differs: %d vs %d" pid a.seqs.(pid)
        b.seqs.(pid)
    | None -> (
      match first_index (Array.length a.globals) (differs a.globals b.globals) with
      | Some slot ->
        some "global slot %d differs: %s vs %s" slot
          (Runtime.Value.to_string a.globals.(slot))
          (Runtime.Value.to_string b.globals.(slot))
      | None -> None)

let show_rec (r : Full_trace.rec_) =
  Format.asprintf "p%d #%d @%d %a" r.tr_pid r.tr_seq r.tr_step Runtime.Event.pp
    r.tr_ev

let trace_diff (a : Full_trace.t) (b : Full_trace.t) =
  let na = Array.length a.recs and nb = Array.length b.recs in
  match first_index (min na nb) (fun i -> a.recs.(i) <> b.recs.(i)) with
  | Some i ->
    Some
      (Printf.sprintf "trace diverges at event %d\ninterp: %s\nvm:     %s" i
         (show_rec a.recs.(i)) (show_rec b.recs.(i)))
  | None ->
    if na <> nb then
      Some (Printf.sprintf "trace lengths differ: interp %d, vm %d" na nb)
    else None
