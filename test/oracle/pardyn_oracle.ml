module Pardyn = Ppd.Pardyn

type obs = {
  prog : Lang.Prog.t;
  mutable streams : Pardyn.item list ref array;  (* per pid, reversed *)
}

let observer prog = { prog; streams = [| ref [] |] }

let ensure_pid o pid =
  let n = Array.length o.streams in
  if pid >= n then
    o.streams <-
      Array.init (pid + 1) (fun i -> if i < n then o.streams.(i) else ref [])

let factory o _port =
  {
    Runtime.Hooks.on_event =
      (fun ~pid ~seq ev ->
        ensure_pid o pid;
        let cell = o.streams.(pid) in
        Option.iter
          (fun item -> cell := item :: !cell)
          (Pardyn.item_of_event ~pid ~seq ev));
    locals = true;
  }

let finish o =
  Pardyn.build o.prog (Array.map (fun cell -> List.rev !cell) o.streams)

let node_reaches (g : Pardyn.t) a b =
  (* node-level successors: synchronization edges and closed internal
     edges *)
  let succs = Array.make (Array.length g.nodes) [] in
  let add (x, y) = succs.(x) <- y :: succs.(x) in
  Array.iter add g.sync_edges;
  Array.iter
    (fun (e : Pardyn.iedge) -> Option.iter (fun y -> add (e.ie_from, y)) e.ie_to)
    g.iedges;
  let seen = Hashtbl.create 16 in
  let rec go n =
    n = b
    ||
    if Hashtbl.mem seen n then false
    else begin
      Hashtbl.add seen n ();
      List.exists go succs.(n)
    end
  in
  go a

let run_logged ?sched ?max_steps ?tier eb =
  let logger = Trace.Logger.create ?tier eb in
  let obs = observer eb.Analysis.Eblock.prog in
  let m =
    Runtime.Machine.create ?sched ?max_steps
      ~hooks:(Hooks.both (Trace.Logger.factory logger) (factory obs))
      eb.Analysis.Eblock.prog
  in
  let halt = Runtime.Machine.run m in
  (halt, Trace.Logger.finish logger, finish obs)
