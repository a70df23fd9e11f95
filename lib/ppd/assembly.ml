(* One dynamic graph and what it takes to grow it (DESIGN §14.6): the
   graph, the builder that feeds fragments into it, the sync links still
   waiting for their source, a summary of each assembled interval, what
   queries added on top of the fragments, and the race answer built from
   the summaries' shared accesses. A controller assembles into a private
   one, or borrows the one its registry entry keeps in {!Fragcache} under
   [lock]. *)

module E = Runtime.Event
module L = Trace.Log
module P = Lang.Prog
module IT = Hashtbl.Make (Int)

(* A sync link whose source event has no node yet. *)
type link = { l_src : E.eref; l_dst : int }

type t = {
  lock : Mutex.t;
  g : Dyn_graph.t;
  builder : Builder.t;
  nprocs : int;
  steps : int array;  (* by interval index: replay steps; -1 not assembled *)
  last : int array;  (* seq of the interval's last event; -1: none *)
  ret : int array;  (* seq of its last return statement; -1: none *)
  writes : (int * int * Runtime.Value.t) list array;
      (* (vid, seq, value) of the last write of each global it writes *)
  by_src : link list IT.t;
      (* pending sync links by source event ({!event_key}): each node an
         assembly adds is looked up here, so a link resolves once its
         source exists *)
  by_dst : link IT.t;  (* the same links by target node *)
  stitches : (int * int) IT.t;
      (* node -> (source, sub-graph node) of the call stitch into it *)
  memo : int list IT.t;
      (* resolved external -> the intervals its resolution visited *)
  accesses : Pardyn.access list IT.t;
      (* interval -> its shared accesses, when it has any *)
  mutable query_edges : int;
  mutable assembled : int;
  mutable assembled_steps : int;
  mutable naccesses : int;
  mutable race : (Pardyn.t * Race.stats * int) option;
      (* the race answer and the largest replay it read *)
}

let create bp ~intervals ~nprocs =
  let g = Dyn_graph.create () in
  {
    lock = Mutex.create ();
    g;
    builder = Builder.create bp g;
    nprocs;
    steps = Array.make intervals (-1);
    last = Array.make intervals (-1);
    ret = Array.make intervals (-1);
    writes = Array.make intervals [];
    by_src = IT.create 16;
    by_dst = IT.create 16;
    stitches = IT.create 16;
    memo = IT.create 16;
    accesses = IT.create 16;
    query_edges = 0;
    assembled = 0;
    assembled_steps = 0;
    naccesses = 0;
    race = None;
  }

let graph t = t.g

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let assembled t i = t.steps.(i) >= 0

let steps t i = t.steps.(i)

let last_seq t i = t.last.(i)

let return_seq t i = t.ret.(i)

let last_write t i vid =
  List.find_map
    (fun (v, seq, value) -> if v = vid then Some (seq, value) else None)
    t.writes.(i)

(* An event as one int, for the pending-link table. *)
let event_key t ~pid ~seq = (seq * t.nprocs) + pid

(* After an assembly added nodes [first ..]: connect the pending links
   whose source is among them, then file the fragment's own unresolved
   [links]. *)
let link_fragment t ~first links =
  if IT.length t.by_src > 0 then
    for src = first to Dyn_graph.nnodes t.g - 1 do
      let seq = Dyn_graph.node_seq t.g src in
      if seq >= 0 then
        let key = event_key t ~pid:(Dyn_graph.node_pid t.g src) ~seq in
        match IT.find_opt t.by_src key with
        | None -> ()
        | Some ls ->
          IT.remove t.by_src key;
          List.iter
            (fun l ->
              IT.remove t.by_dst l.l_dst;
              Dyn_graph.add_edge t.g ~src ~dst:l.l_dst ~kind:Dyn_graph.Sync)
            ls
    done;
  List.iter
    (fun (src, dst) ->
      let l = { l_src = src; l_dst = dst } in
      let key = event_key t ~pid:src.E.epid ~seq:src.E.eseq in
      IT.replace t.by_dst dst l;
      IT.replace t.by_src key
        (l :: Option.value ~default:[] (IT.find_opt t.by_src key)))
    links

let add t ~(interval : L.interval) i (o : Emulator.outcome) =
  let first = Dyn_graph.nnodes t.g in
  link_fragment t ~first (Builder.build_from_outcome t.builder ~interval o);
  let pid = interval.L.iv_pid in
  let last = ref (-1) and ret = ref (-1) and writes = ref [] in
  let accesses = ref [] in
  List.iter
    (fun (seq, (ev : E.t)) ->
      last := seq;
      (match Pardyn.access_of_event ~pid ~seq ev with
      | Some a -> accesses := a :: !accesses
      | None -> ());
      match ev with
      | E.E_stmt { kind; write; _ } -> (
        (match kind with E.K_return _ -> ret := seq | _ -> ());
        match write with
        | Some { var; value } when P.is_global var ->
          writes :=
            (var.P.vid, seq, value)
            :: List.filter (fun (v, _, _) -> v <> var.P.vid) !writes
        | Some _ | None -> ())
      | _ -> ())
    o.Emulator.events;
  t.steps.(i) <- o.Emulator.steps;
  t.last.(i) <- !last;
  t.ret.(i) <- !ret;
  t.writes.(i) <- !writes;
  if !accesses <> [] then begin
    IT.replace t.accesses i !accesses;
    t.naccesses <- t.naccesses + List.length !accesses
  end;
  t.assembled <- t.assembled + 1;
  t.assembled_steps <- t.assembled_steps + o.Emulator.steps

let accesses t i = Option.value ~default:[] (IT.find_opt t.accesses i)

let race t = t.race

let set_race t r = t.race <- Some r

let pending_source t node =
  Option.map (fun l -> l.l_src) (IT.find_opt t.by_dst node)

let add_query_edge t ~src ~dst ~kind =
  let n = Dyn_graph.nedges t.g in
  Dyn_graph.add_edge t.g ~src ~dst ~kind;
  t.query_edges <- t.query_edges + (Dyn_graph.nedges t.g - n)

let stitch t ~sub ~src ~dst ~kind =
  IT.replace t.stitches dst (src, sub);
  add_query_edge t ~src ~dst ~kind

let stitch_into t node = IT.find_opt t.stitches node

let remember t node trail = IT.replace t.memo node trail

let memo t node = IT.find_opt t.memo node

let nodes t = Dyn_graph.nnodes t.g

let fragment_edges t = Dyn_graph.nedges t.g - t.query_edges

let edges t = Dyn_graph.nedges t.g

let intervals_assembled t = t.assembled

let assembled_steps t = t.assembled_steps

(* The graph's columns, per interval its summary (four array slots and a
   short list), per table entry a bucket cell, ~96 bytes a kept shared
   access, and the race answer: per sync node its record, sync data, vector
   clock, index entry and adjacency, per internal edge its record and
   sets (~380 and ~100 bytes on the e2e ledger, [Obj.reachable_words]),
   per race its record. *)
let bytes t =
  let race =
    match t.race with
    | None -> 0
    | Some (pd, st, _) ->
      (Array.length pd.Pardyn.nodes * 380)
      + (Array.length pd.Pardyn.iedges * 100)
      + (List.length st.Race.races * 48)
  in
  Dyn_graph.bytes t.g
  + (Array.length t.steps * 48)
  + ((IT.length t.memo + IT.length t.stitches + IT.length t.by_dst
     + IT.length t.accesses)
    * 64)
  + (t.naccesses * 96)
  + race
