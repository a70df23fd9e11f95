(* Layer spans for the traced run, recorded from the benchmark's own
   calls into each layer (the program itself is not instrumented).

   A span's self time is its duration minus its child spans; where a
   call re-does a lower layer's work that the benchmark timed on its own
   just before (a logged run re-runs the bare machine), [minus] takes
   that measurement out too, so each layer is charged only its own work.
   Spans are single-threaded: the traced run has one client. *)

type t = {
  self_ns : (string, int ref) Hashtbl.t;
  counts : (string, int ref) Hashtbl.t;
  mutable open_children : int ref list;  (* child time of each open span *)
  mutable events : string list;  (* Chrome trace events, newest first *)
  mutable n_events : int;
  origin : int;
}

(* Chrome trace size cap: later spans still count, they are just not
   written out. *)
let max_events = 200_000

let create () =
  {
    self_ns = Hashtbl.create 32;
    counts = Hashtbl.create 32;
    open_children = [];
    events = [];
    n_events = 0;
    origin = Obs.now_ns ();
  }

let bump tbl name n =
  match Hashtbl.find_opt tbl name with
  | Some r -> r := !r + n
  | None -> Hashtbl.replace tbl name (ref n)

let get tbl name =
  match Hashtbl.find_opt tbl name with Some r -> !r | None -> 0

let count t name n = bump t.counts name n

let counted t name = get t.counts name

let self_ns t name = get t.self_ns name

let total_self_ns t = Hashtbl.fold (fun _ r acc -> acc + !r) t.self_ns 0

let event t ~cat name t0 dur =
  if t.n_events < max_events then begin
    t.n_events <- t.n_events + 1;
    t.events <-
      Printf.sprintf
        {|{"name":"%s","cat":"%s","ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f}|}
        name cat
        (float_of_int (t0 - t.origin) /. 1e3)
        (float_of_int dur /. 1e3)
      :: t.events
  end

let span ?(minus = 0) t name f =
  let children = ref 0 in
  t.open_children <- children :: t.open_children;
  let t0 = Obs.now_ns () in
  let close () =
    let dur = Obs.now_ns () - t0 in
    t.open_children <- List.tl t.open_children;
    (match t.open_children with p :: _ -> p := !p + dur | [] -> ());
    bump t.self_ns name (dur - !children - minus);
    event t ~cat:"layer" name t0 dur;
    dur
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
    ignore (close ());
    raise e

let layer t name f = fst (span t name f)

(* An undecomposed operation, timed for the trace file only: the total
   the layer spans are compared against. *)
let whole t name f =
  let t0 = Obs.now_ns () in
  let v = f () in
  let dur = Obs.now_ns () - t0 in
  event t ~cat:"op" name t0 dur;
  (v, dur)

(* The layer spans, then the counts at the end of the trace. *)
let chrome_trace t =
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf e)
    (List.rev t.events);
  let end_us = float_of_int (Obs.now_ns () - t.origin) /. 1e3 in
  let sep = ref (t.events <> []) in
  List.iter
    (fun (name, v) ->
      if !sep then Buffer.add_string buf ",\n";
      sep := true;
      Buffer.add_string buf
        (Printf.sprintf
           {|{"name":"%s","ph":"C","pid":1,"tid":0,"ts":%.3f,"args":{"value":%d}}|}
           name end_us !v))
    (List.sort compare (List.of_seq (Hashtbl.to_seq t.counts)));
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf
