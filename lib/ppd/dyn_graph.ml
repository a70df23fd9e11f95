module P = Lang.Prog
module E = Runtime.Event
module V = Runtime.Value

type node_kind =
  | N_entry of int
  | N_exit of int
  | N_singular of int
  | N_subgraph of { sid : int; callee : int }
  | N_loop of int
  | N_param of int
  | N_external of P.var
  | N_hole of { hole_lo : int; hole_hi : int }

type node = {
  nd_id : int;
  nd_ref : E.eref option;
  nd_kind : node_kind;
  nd_pid : int;
  nd_owner : int option;
  nd_label : string;
  nd_value : V.t option;
}

type edge_kind = Flow | Data of P.var | Dparam of int | Control | Sync

(* Node kind tags; the payload sits in [pa] and [pb]: the fid, sid or
   parameter index in [pa]; a sub-graph's callee and a hole's upper
   bound in [pb]; an external's vid in [pa] and its frontier entry in
   [pb] (-1 once resolved). *)
let k_entry = 0

let k_exit = 1

let k_singular = 2

let k_subgraph = 3

let k_loop = 4

let k_param = 5

let k_external = 6

let k_hole = 7

(* Stands for "no value" in [value]; no caller can hold this block. *)
let no_value = V.Varr (Array.make 0 0)

let no_var =
  { P.vid = -1; vname = ""; vty = P.Tint; vscope = P.Global (-1); vfid = -1 }

(* Columns are stored in chunks: growing one adds a chunk and never
   copies what is stored. Ids below 512 live in chunks of 64, so a
   small graph holds (and is charged for) little more than its entries.
   From 512 on, chunks hold 512, the smallest power of two the runtime
   allocates outside the minor heap: a large graph is never copied by a
   minor collection, and no allocation is larger than a chunk, so the
   allocator recycles the memory of earlier graphs.

   The index has one slot per 64 ids, pointing at the chunk that holds
   them; a chunk starts at a multiple of its length, so an id's offset
   is the id masked by that length. The index holds pointers, not
   entries, and doubles when full. A spare slot points at the chunk
   appended when the index grew, which is as long as any chunk its ids
   would reach, so no id reads outside an array. *)
let unit_bits = 6

let small = 512  (* ids below this live in 64-entry chunks *)

type ints = { mutable ic : int array array; mutable ni : int (* entries *) }

type 'a refs = { mutable rc : 'a array array; mutable nr : int }

let ints () = { ic = [||]; ni = 0 }

let refs () = { rc = [||]; nr = 0 }

let[@inline] iget c i =
  let a = c.ic.(i lsr unit_bits) in
  if i < small then Array.unsafe_get a (i land 63)
  else Array.unsafe_get a (i land 511)

let[@inline] iset c i v =
  let a = c.ic.(i lsr unit_bits) in
  if i < small then Array.unsafe_set a (i land 63) v
  else Array.unsafe_set a (i land 511) v

let[@inline] rget c i =
  let a = c.rc.(i lsr unit_bits) in
  if i < small then Array.unsafe_get a (i land 63)
  else Array.unsafe_get a (i land 511)

let[@inline] rset c i v =
  let a = c.rc.(i lsr unit_bits) in
  if i < small then Array.unsafe_set a (i land 63) v
  else Array.unsafe_set a (i land 511) v

(* [index] over [n] ids, with the next chunk appended. *)
let append index n chunk =
  let first = n lsr unit_bits and units = Array.length chunk lsr unit_bits in
  let index =
    if first + units <= Array.length index then index
    else begin
      let bigger = Array.make (max 8 (2 * (first + units))) chunk in
      Array.blit index 0 bigger 0 first;
      bigger
    end
  in
  Array.fill index first units chunk;
  index

let chunk_after n = if n < small then 64 else 512

let igrow c fill =
  let chunk = Array.make (chunk_after c.ni) fill in
  c.ic <- append c.ic c.ni chunk;
  c.ni <- c.ni + Array.length chunk

let rgrow c fill =
  let chunk = Array.make (chunk_after c.nr) fill in
  c.rc <- append c.rc c.nr chunk;
  c.nr <- c.nr + Array.length chunk

type t = {
  (* nodes, by id *)
  mutable n : int;
  pid : ints;
  tag : ints;
  pa : ints;
  pb : ints;
  owner : ints;  (* -1: none *)
  seq : ints;  (* event sequence number in [pid]; -1: none *)
  value : V.t refs;  (* [no_value]: none *)
  label : string refs;
  pred_head : ints;  (* newest incoming edge; -1: none *)
  succ_head : ints;  (* newest outgoing edge *)
  (* edges, by id, chained newest-first through each endpoint *)
  mutable ne : int;
  e_src : ints;
  e_dst : ints;
  e_code : ints;
  e_next_pred : ints;
  e_next_succ : ints;
  mutable kinds : edge_kind array;  (* by code, for codes >= 3 *)
  mutable vars : P.var array;  (* by vid: externals' variables *)
  (* event index: the nodes of a process's 8 consecutive events form a
     group; groups hash to buckets, and a bucket chains its nodes
     through [ev_next], newest first *)
  ev_next : ints;  (* -1: end of chain *)
  mutable buckets : int array;  (* newest node; -1: empty *)
  mutable nindexed : int;
  (* the frontier: every [mark_external], oldest first *)
  mutable nmarks : int;
  mutable mark_node : int array;
  mutable mark_vid : int array;
}

let create () =
  {
    n = 0;
    pid = ints ();
    tag = ints ();
    pa = ints ();
    pb = ints ();
    owner = ints ();
    seq = ints ();
    value = refs ();
    label = refs ();
    pred_head = ints ();
    succ_head = ints ();
    ne = 0;
    e_src = ints ();
    e_dst = ints ();
    e_code = ints ();
    e_next_pred = ints ();
    e_next_succ = ints ();
    kinds = [||];
    vars = [||];
    ev_next = ints ();
    buckets = Array.make 64 (-1);
    nindexed = 0;
    nmarks = 0;
    mark_node = [||];
    mark_vid = [||];
  }

let grow_nodes t =
  igrow t.pid 0;
  igrow t.tag 0;
  igrow t.pa 0;
  igrow t.pb 0;
  igrow t.owner (-1);
  igrow t.seq (-1);
  rgrow t.value no_value;
  rgrow t.label "";
  igrow t.ev_next (-1);
  igrow t.pred_head (-1);
  igrow t.succ_head (-1)

let grow_edges t =
  igrow t.e_src 0;
  igrow t.e_dst 0;
  igrow t.e_code 0;
  igrow t.e_next_pred (-1);
  igrow t.e_next_succ (-1)

(* [a] copied into a fresh array of length [cap], padded with [fill]. *)
let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let register_var t (v : P.var) =
  if v.vid >= Array.length t.vars then
    t.vars <- extend t.vars (max 16 (2 * v.vid + 1)) no_var;
  if t.vars.(v.vid) == no_var then t.vars.(v.vid) <- v

(* ------------------------------------------------------------------ *)
(* Event index.                                                         *)
(* ------------------------------------------------------------------ *)

let bucket buckets pid seq =
  let h = (((seq lsr 3) * 31) + pid) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land (Array.length buckets - 1)

let link t buckets id =
  let b = bucket buckets (iget t.pid id) (iget t.seq id) in
  iset t.ev_next id buckets.(b);
  buckets.(b) <- id

(* About four nodes a bucket: a lookup walks its own group's nodes,
   which sit next to each other, plus a few from a colliding group. *)
let index t id =
  t.nindexed <- t.nindexed + 1;
  if t.nindexed > 4 * Array.length t.buckets then begin
    let buckets = Array.make (2 * Array.length t.buckets) (-1) in
    (* relinking in id order keeps every chain newest first *)
    for i = 0 to id - 1 do
      if iget t.seq i >= 0 then link t buckets i
    done;
    t.buckets <- buckets
  end;
  link t t.buckets id

let rec find_in t pid seq i =
  if i < 0 then None
  else if iget t.seq i = seq && iget t.pid i = pid then Some i
  else find_in t pid seq (iget t.ev_next i)

(* The newest node of an event is the first in its chain. *)
let find_event t ~pid ~seq =
  if seq < 0 then None
  else find_in t pid seq t.buckets.(bucket t.buckets pid seq)

let find_ref t (r : E.eref) = find_event t ~pid:r.epid ~seq:r.eseq

(* ------------------------------------------------------------------ *)
(* Nodes.                                                               *)
(* ------------------------------------------------------------------ *)

(* [seq] < 0: the node stands for no event. *)
let add t ~seq ?owner ?value ~pid ~kind ~label () =
  if t.n = t.pid.ni then grow_nodes t;
  let id = t.n in
  let tag, a, b =
    match kind with
    | N_entry fid -> (k_entry, fid, 0)
    | N_exit fid -> (k_exit, fid, 0)
    | N_singular sid -> (k_singular, sid, 0)
    | N_subgraph { sid; callee } -> (k_subgraph, sid, callee)
    | N_loop sid -> (k_loop, sid, 0)
    | N_param i -> (k_param, i, 0)
    | N_external v ->
      register_var t v;
      (k_external, v.vid, -1)
    | N_hole { hole_lo; hole_hi } -> (k_hole, hole_lo, hole_hi)
  in
  iset t.pid id pid;
  iset t.tag id tag;
  iset t.pa id a;
  iset t.pb id b;
  (match owner with Some o -> iset t.owner id o | None -> ());
  (match value with Some v -> rset t.value id v | None -> ());
  rset t.label id label;
  t.n <- id + 1;
  if seq >= 0 then begin
    iset t.seq id seq;
    index t id
  end;
  id

let add_node t ?ref_ ?owner ?value ~pid ~kind ~label () =
  match ref_ with
  | Some (r : E.eref) when r.epid <> pid || r.eseq < 0 ->
    invalid_arg "Dyn_graph.add_node: the event must be one of process pid"
  | Some r -> add t ~seq:r.eseq ?owner ?value ~pid ~kind ~label ()
  | None -> add t ~seq:(-1) ?owner ?value ~pid ~kind ~label ()

let add_event_node t ~seq ?owner ?value ~pid ~kind ~label () =
  if seq < 0 then invalid_arg "Dyn_graph.add_event_node: negative sequence number";
  add t ~seq ?owner ?value ~pid ~kind ~label ()

let nnodes t = t.n

(* Eleven node columns and five edge columns, in whole chunks, plus the
   event index, the frontier and the kind and variable tables. *)
let bytes t =
  let chunks c = c.ni in
  8
  * ((11 * chunks t.pid) + (5 * chunks t.e_src) + Array.length t.buckets
    + (2 * Array.length t.mark_node)
    + Array.length t.kinds + Array.length t.vars)

let nedges t = t.ne

let check t i name = if i < 0 || i >= t.n then invalid_arg name

(* the tags [k_entry] .. [k_hole], in order *)
let kind t i =
  let a = iget t.pa i in
  match iget t.tag i with
  | 0 -> N_entry a
  | 1 -> N_exit a
  | 2 -> N_singular a
  | 3 -> N_subgraph { sid = a; callee = iget t.pb i }
  | 4 -> N_loop a
  | 5 -> N_param a
  | 6 -> N_external t.vars.(a)
  | _ -> N_hole { hole_lo = a; hole_hi = iget t.pb i }

let value t i =
  let v = rget t.value i in
  if v == no_value then None else Some v

let node t i =
  check t i "Dyn_graph.node";
  let pid = iget t.pid i and seq = iget t.seq i and owner = iget t.owner i in
  {
    nd_id = i;
    nd_ref = (if seq < 0 then None else Some { E.epid = pid; eseq = seq });
    nd_kind = kind t i;
    nd_pid = pid;
    nd_owner = (if owner < 0 then None else Some owner);
    nd_label = rget t.label i;
    nd_value = value t i;
  }

let node_pid t i =
  check t i "Dyn_graph.node_pid";
  iget t.pid i

let node_seq t i =
  check t i "Dyn_graph.node_seq";
  iget t.seq i

let set_value t i v =
  check t i "Dyn_graph.set_value";
  rset t.value i v

let set_owner t i o =
  check t i "Dyn_graph.set_owner";
  iset t.owner i (match o with Some o -> o | None -> -1)

(* ------------------------------------------------------------------ *)
(* Edges.                                                               *)
(* ------------------------------------------------------------------ *)

(* Edge kinds as ints: 0 flow, 1 control, 2 sync, 3 + 2i the i-th
   parameter mapping, 4 + 2vid a data dependence on variable vid. The
   first kind value seen for each code is kept, so decoding a code
   allocates nothing. *)
let code t k =
  let c =
    match k with
    | Flow -> 0
    | Control -> 1
    | Sync -> 2
    | Dparam i ->
      if i < 0 then invalid_arg "Dyn_graph.add_edge: negative parameter index";
      3 + (2 * i)
    | Data v -> 4 + (2 * v.P.vid)
  in
  if c >= 3 then begin
    if c >= Array.length t.kinds then
      t.kinds <- extend t.kinds (max 32 (2 * c)) Flow;
    if t.kinds.(c) == Flow then t.kinds.(c) <- k
  end;
  c

let edge_kind t c =
  match c with 0 -> Flow | 1 -> Control | 2 -> Sync | c -> t.kinds.(c)

let rec has_pred t e src c =
  e >= 0
  && ((iget t.e_src e = src && iget t.e_code e = c)
     || has_pred t (iget t.e_next_pred e) src c)

let add_edge t ~src ~dst ~kind =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Dyn_graph.add_edge: bad node id";
  let c = code t kind in
  if not (has_pred t (iget t.pred_head dst) src c) then begin
    let e = t.ne in
    if e = t.e_src.ni then grow_edges t;
    iset t.e_src e src;
    iset t.e_dst e dst;
    iset t.e_code e c;
    iset t.e_next_pred e (iget t.pred_head dst);
    iset t.pred_head dst e;
    iset t.e_next_succ e (iget t.succ_head src);
    iset t.succ_head src e;
    t.ne <- e + 1
  end

(* Walking a newest-first chain and consing yields insertion order. *)
let rec collect_preds t e acc =
  if e < 0 then acc
  else
    collect_preds t (iget t.e_next_pred e)
      ((iget t.e_src e, edge_kind t (iget t.e_code e)) :: acc)

let rec collect_succs t e acc =
  if e < 0 then acc
  else
    collect_succs t (iget t.e_next_succ e)
      ((iget t.e_dst e, edge_kind t (iget t.e_code e)) :: acc)

let preds t i =
  check t i "Dyn_graph.preds";
  collect_preds t (iget t.pred_head i) []

let succs t i =
  check t i "Dyn_graph.succs";
  collect_succs t (iget t.succ_head i) []

(* ------------------------------------------------------------------ *)
(* The frontier.                                                        *)
(* ------------------------------------------------------------------ *)

let is_external t i =
  check t i "Dyn_graph.is_external";
  iget t.tag i = k_external && iget t.pb i >= 0

let mark_external t i (v : P.var) =
  check t i "Dyn_graph.mark_external";
  if iget t.tag i <> k_external then
    invalid_arg "Dyn_graph.mark_external: not an external node";
  register_var t v;
  if t.nmarks = Array.length t.mark_node then begin
    let cap = max 16 (2 * t.nmarks) in
    t.mark_node <- extend t.mark_node cap 0;
    t.mark_vid <- extend t.mark_vid cap 0
  end;
  t.mark_node.(t.nmarks) <- i;
  t.mark_vid.(t.nmarks) <- v.vid;
  iset t.pb i t.nmarks;
  t.nmarks <- t.nmarks + 1

let resolve_external t i =
  check t i "Dyn_graph.resolve_external";
  if iget t.tag i = k_external then iset t.pb i (-1)

(* Newest mark first; a node's earlier marks are superseded. *)
let externals t =
  let acc = ref [] in
  for m = 0 to t.nmarks - 1 do
    let i = t.mark_node.(m) in
    if iget t.pb i = m then acc := (i, t.vars.(t.mark_vid.(m))) :: !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Rendering.                                                           *)
(* ------------------------------------------------------------------ *)

let pp_kind ppf = function
  | N_entry fid -> Format.fprintf ppf "entry(f%d)" fid
  | N_exit fid -> Format.fprintf ppf "exit(f%d)" fid
  | N_singular sid -> Format.fprintf ppf "s%d" sid
  | N_subgraph { sid; callee } -> Format.fprintf ppf "sub(s%d,f%d)" sid callee
  | N_loop sid -> Format.fprintf ppf "loop(s%d)" sid
  | N_param i -> Format.fprintf ppf "%%%d" i
  | N_external v -> Format.fprintf ppf "ext(%s)" v.P.vname
  | N_hole { hole_lo; hole_hi } ->
    Format.fprintf ppf "hole(%d-%d)" hole_lo hole_hi

let pp_node ppf n =
  Format.fprintf ppf "#%d p%d %a \"%s\"" n.nd_id n.nd_pid pp_kind n.nd_kind
    n.nd_label;
  (match n.nd_value with
  | None -> ()
  | Some v -> Format.fprintf ppf " = %a" V.pp v);
  match n.nd_owner with
  | None -> ()
  | Some o -> Format.fprintf ppf " in #%d" o

let pp_edge_kind ppf = function
  | Flow -> Format.pp_print_string ppf "flow"
  | Data v -> Format.fprintf ppf "data:%s" v.P.vname
  | Dparam i -> Format.fprintf ppf "param:%%%d" i
  | Control -> Format.pp_print_string ppf "ctrl"
  | Sync -> Format.pp_print_string ppf "sync"

let pp ppf t =
  Format.fprintf ppf "@[<v>dynamic graph (%d nodes, %d edges):" t.n t.ne;
  for i = 0 to t.n - 1 do
    Format.fprintf ppf "@,%a" pp_node (node t i);
    List.iter
      (fun (src, k) -> Format.fprintf ppf "@,   <- #%d [%a]" src pp_edge_kind k)
      (preds t i)
  done;
  Format.fprintf ppf "@]"

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let to_dot t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph ppd {\n  rankdir=TB;\n  node [shape=ellipse];\n";
  (* group nodes by owner for clusters *)
  let top = ref [] in
  let by_owner = Hashtbl.create 16 in
  for i = 0 to t.n - 1 do
    let o = iget t.owner i in
    if o < 0 then top := i :: !top
    else
      Hashtbl.replace by_owner o (i :: (Option.value ~default:[] (Hashtbl.find_opt by_owner o)))
  done;
  let emit_node i =
    let tag = iget t.tag i in
    let shape =
      if tag = k_subgraph || tag = k_loop then "box"
      else if tag = k_external then "diamond"
      else if tag = k_hole then "octagon"
      else if tag = k_entry || tag = k_exit then "plaintext"
      else "ellipse"
    in
    let label =
      match value t i with
      | Some v -> Printf.sprintf "%s = %s" (rget t.label i) (V.to_string v)
      | None -> rget t.label i
    in
    Buffer.add_string b
      (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" i (dot_escape label)
         shape)
  in
  List.iter emit_node (List.rev !top);
  Hashtbl.iter
    (fun owner members ->
      Buffer.add_string b
        (Printf.sprintf "  subgraph cluster_%d {\n    label=\"%s\";\n" owner
           (dot_escape (rget t.label owner)));
      List.iter
        (fun i ->
          Buffer.add_string b
            (Printf.sprintf "    n%d [label=\"%s\"];\n" i (dot_escape (rget t.label i))))
        (List.rev members);
      Buffer.add_string b "  }\n")
    by_owner;
  for dst = 0 to t.n - 1 do
    List.iter
      (fun (src, k) ->
        let style, label =
          match k with
          | Flow -> ("dotted", "")
          | Data v -> ("solid", v.P.vname)
          | Dparam i -> ("solid", Printf.sprintf "%%%d" i)
          | Control -> ("dashed", "")
          | Sync -> ("bold", "sync")
        in
        Buffer.add_string b
          (Printf.sprintf "  n%d -> n%d [style=%s, label=\"%s\"];\n" src dst
             style (dot_escape label)))
      (preds t dst)
  done;
  Buffer.add_string b "}\n";
  Buffer.contents b
