(* Shared replayed-fragment cache (DESIGN §14, §17).

   One instance per opened log identity: every controller debugging
   that log — across daemon sessions, across requests — publishes the
   raw replay outcomes it produces and consults the cache before
   replaying. Outcomes are pure functions of (log, e-block analysis,
   interval), so sharing them across sessions is safe; only *clean*
   outcomes are published (no injected fault, no watchdog overrun), so
   one session's degraded holes can never leak into another session's
   answers.

   With a [Resil.Budget] attached, every insert charges a byte
   estimate and triggers a rebalance; the registered reclaimer calls
   {!reclaim}, which evicts in ascending replay-cost-per-byte order —
   the outcomes that are big but cheap to recompute go first, the
   small expensive ones are kept. Eviction is always safe: a future
   lookup just replays the interval again. An order-tier log's
   reconstruction (DESIGN §16.2) and the log's race answer (its
   parallel dynamic graph and the detector's stats) are held, charged
   and evicted the same way, their cost being what rebuilding them
   takes.

   The hit/miss counters are plain atomics, always live (unlike the
   Obs mirrors, which are no-ops until profiling is enabled): the T13
   bench and the `serverStats` method read exact numbers from here. *)

type stats = { hits : int; misses : int; inserts : int }

type entry = {
  e_outcome : Emulator.outcome;
  e_bytes : int;  (* charged estimate *)
  e_steps : int;  (* replay cost: what eviction throws away *)
}

(* A value derived once from the whole log and held until evicted: the
   key it was derived for (compared physically), its charged estimate,
   and what rebuilding it costs, in replay steps. *)
type ('k, 'v) derived = {
  d_key : 'k;
  d_value : 'v;
  d_bytes : int;
  d_steps : int;
}

(* Filled by compare-and-set, emptied by compare-and-set in {!reclaim}:
   whoever wins a transition does its accounting. *)
type ('k, 'v) slot = ('k, 'v) derived option Atomic.t

(* Keys carry the *source tier* of the session that produced the
   outcome ("content" or "order"), not just (pid, iv_id): an order-tier
   session debugs a reconstructed log whose value snapshots are
   re-derived rather than recorded, so its outcomes are never exchanged
   with a content-tier session on the same registry identity — the two
   populations stay separate even if a registry ever maps both to one
   cache instance. *)
type t = {
  lock : Mutex.t;
  tbl : (string * int * int, entry) Hashtbl.t;
  budget : Resil.Budget.t option;
  bytes : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  inserts : int Atomic.t;
  evictions : int Atomic.t;
  bp : (Lang.Prog.t * Builder.program) option Atomic.t;
      (* assembly tables of the program every controller here debugs *)
  recon : (Store.Segment.reader * Analysis.Eblock.t, Store.Segment.reader) slot;
      (* the content reader reconstructed from an order-tier source
         reader (DESIGN §16.2), for one e-block analysis *)
  race : (Lang.Prog.t * Store.Segment.reader * int, Pardyn.t * Race.stats) slot;
      (* the parallel dynamic graph of one content reader and its
         detector stats, built under one watchdog budget *)
}

let create ?budget () =
  {
    bp = Atomic.make None;
    recon = Atomic.make None;
    race = Atomic.make None;
    lock = Mutex.create ();
    tbl = Hashtbl.create 64;
    budget;
    bytes = Atomic.make 0;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    inserts = Atomic.make 0;
    evictions = Atomic.make 0;
  }

(* A coarse in-memory cost for one outcome: events dominate (boxed
   (seq, event) pairs on a list), plus the regenerated output string
   and a fixed overhead for the record and the table slot. *)
let cost_bytes (o : Emulator.outcome) =
  (List.length o.Emulator.events * 48) + String.length o.Emulator.output + 96

let find t key =
  Mutex.lock t.lock;
  let o = Hashtbl.find_opt t.tbl key in
  Mutex.unlock t.lock;
  (match o with
  | Some _ -> Atomic.incr t.hits
  | None -> Atomic.incr t.misses);
  Option.map (fun e -> e.e_outcome) o

(* Publish a clean outcome. Failed or truncated replays stay private to
   the controller that saw them: a transient fault or a tight watchdog
   budget is that session's business, not the log's. The budget charge
   and rebalance run *after* the table lock is released — the
   rebalance walk re-enters this cache through {!reclaim}. *)
let publish t key (o : Emulator.outcome) =
  if o.Emulator.fault = None && not o.Emulator.overrun then begin
    let cost = cost_bytes o in
    Mutex.lock t.lock;
    let inserted =
      if Hashtbl.mem t.tbl key then false
      else begin
        Hashtbl.replace t.tbl key
          { e_outcome = o; e_bytes = cost; e_steps = o.Emulator.steps };
        Atomic.incr t.inserts;
        ignore (Atomic.fetch_and_add t.bytes cost);
        true
      end
    in
    Mutex.unlock t.lock;
    match t.budget with
    | Some b when inserted ->
      Resil.Budget.charge b cost;
      Resil.Budget.rebalance b
    | _ -> ()
  end

(* An eviction candidate: its rebuild cost, its bytes, and how to evict
   it (false if a racing transition got there first). *)
let candidate slot acc =
  match Atomic.get slot with
  | Some d as cur ->
    (d.d_steps, d.d_bytes, fun () -> Atomic.compare_and_set slot cur None) :: acc
  | None -> acc

(* Evict up to [want] accounted bytes, cheapest-to-recompute-per-byte
   first; the derived values rank among the outcomes by their rebuild
   cost. Returns the bytes actually freed; releases them from the
   attached budget itself (the [Resil.Budget] reclaimer contract). *)
let reclaim t want =
  if want <= 0 then 0
  else begin
    Mutex.lock t.lock;
    let frags =
      Hashtbl.fold
        (fun k e acc ->
          ( e.e_steps,
            e.e_bytes,
            fun () ->
              Hashtbl.remove t.tbl k;
              true )
          :: acc)
        t.tbl []
    in
    let ranked =
      List.stable_sort
        (fun (sa, ba, _) (sb, bb, _) ->
          compare
            (float_of_int sa /. float_of_int ba)
            (float_of_int sb /. float_of_int bb))
        (candidate t.recon (candidate t.race frags))
    in
    let freed = ref 0 in
    List.iter
      (fun (_, bytes, evict) ->
        if !freed < want && evict () then begin
          freed := !freed + bytes;
          Atomic.incr t.evictions
        end)
      ranked;
    ignore (Atomic.fetch_and_add t.bytes (- !freed));
    Mutex.unlock t.lock;
    (match t.budget with
    | Some b -> Resil.Budget.release b !freed
    | None -> ());
    !freed
  end

let clear t = ignore (reclaim t max_int)

let mem t key =
  Mutex.lock t.lock;
  let m = Hashtbl.mem t.tbl key in
  Mutex.unlock t.lock;
  m

let size t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.lock;
  n

let bytes t = Atomic.get t.bytes

(* The tables are a pure function of the program; a racing second
   computation is merely wasted work. *)
let program t prog =
  match Atomic.get t.bp with
  | Some (p, bp) when p == prog -> bp
  | _ ->
    let bp = Builder.program prog in
    Atomic.set t.bp (Some (prog, bp));
    bp

(* Successes only: a failure propagates and leaves the slot as it was,
   so the next request tries again. The budget charge and rebalance run
   after the slot is set and may evict it at once; the caller still
   holds the value it asked for. *)
let derive t slot ~same build =
  match Atomic.get slot with
  | Some d when same d.d_key -> d.d_value
  | cur -> (
    let d = build () in
    if Atomic.compare_and_set slot cur (Some d) then begin
      let replaced = match cur with Some o -> o.d_bytes | None -> 0 in
      ignore (Atomic.fetch_and_add t.bytes (d.d_bytes - replaced));
      (match t.budget with
      | Some b ->
        Resil.Budget.release b replaced;
        Resil.Budget.charge b d.d_bytes;
        Resil.Budget.rebalance b
      | None -> ());
      d.d_value
    end
    else
      (* a racing builder installed first: use its copy, drop ours *)
      match Atomic.get slot with
      | Some w when same w.d_key -> w.d_value
      | _ -> d.d_value)

(* A coarse in-memory cost for a reconstruction: its entries, which
   carry full value snapshots, plus the interval tables built from them
   (~313 bytes an entry on the e2e ledger, [Obj.reachable_words];
   snapshot-heavy logs run higher). *)
let recon_cost r = (Store.Segment.entry_count r * 320) + 128

let reconstruction t eb src =
  derive t t.recon
    ~same:(fun (s, e) -> s == src && e == eb)
    (fun () ->
      let reader, steps = Reconstruct.reader eb src in
      {
        d_key = (src, eb);
        d_value = reader;
        d_bytes = recon_cost reader;
        d_steps = steps;
      })

(* A coarse in-memory cost for a race answer: per sync node its record,
   sync data, vector clock, index entry and adjacency, per internal edge
   its record (~380 and ~100 bytes on the e2e ledger,
   [Obj.reachable_words]), per non-empty access set its bit words, per
   race its record. *)
let race_cost ((pd : Pardyn.t), (st : Race.stats)) =
  let sets =
    Array.fold_left
      (fun n (e : Pardyn.iedge) ->
        let one s = if Analysis.Varset.is_empty s then 0 else 1 in
        n + one e.Pardyn.ie_reads + one e.Pardyn.ie_writes)
      0 pd.Pardyn.iedges
  in
  (Array.length pd.Pardyn.nodes * 380)
  + (Array.length pd.Pardyn.iedges * 100)
  + (sets * 48)
  + (List.length st.Race.races * 48)
  + 128

let race t prog src ~max_replay_steps build =
  derive t t.race
    ~same:(fun (p, s, m) -> p == prog && s == src && m = max_replay_steps)
    (fun () ->
      let pd, st, steps = Obs.phase "race-graph" build in
      {
        d_key = (prog, src, max_replay_steps);
        d_value = (pd, st);
        d_bytes = race_cost (pd, st);
        d_steps = steps;
      })

let evictions t = Atomic.get t.evictions

let stats t =
  {
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    inserts = Atomic.get t.inserts;
  }

let hit_rate t =
  let s = stats t in
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
