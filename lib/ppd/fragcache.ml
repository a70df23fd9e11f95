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
   reconstruction (DESIGN §16.2) is held, charged and evicted the same
   way, its cost being the program's re-execution.

   The hit/miss counters are plain atomics, always live (unlike the
   Obs mirrors, which are no-ops until profiling is enabled): the T13
   bench and the `serverStats` method read exact numbers from here. *)

type stats = { hits : int; misses : int; inserts : int }

type entry = {
  e_outcome : Emulator.outcome;
  e_bytes : int;  (* charged estimate *)
  e_steps : int;  (* replay cost: what eviction throws away *)
}

(* The content reader reconstructed from an order-tier source reader
   (DESIGN §16.2), for one e-block analysis. *)
type recon = {
  rc_src : Store.Segment.reader;
  rc_eb : Analysis.Eblock.t;
  rc_reader : Store.Segment.reader;
  rc_bytes : int;  (* charged estimate *)
  rc_steps : int;  (* the re-execution's steps: what eviction throws away *)
}

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
  recon : recon option Atomic.t;
      (* filled by compare-and-set, emptied by compare-and-set in
         {!reclaim}: whoever wins a transition does its accounting *)
}

let create ?budget () =
  {
    bp = Atomic.make None;
    recon = Atomic.make None;
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

(* Evict up to [want] accounted bytes, cheapest-to-recompute-per-byte
   first; the reconstruction ranks among the outcomes by its
   re-execution's steps. Returns the bytes actually freed; releases
   them from the attached budget itself (the [Resil.Budget] reclaimer
   contract). *)
let reclaim t want =
  if want <= 0 then 0
  else begin
    Mutex.lock t.lock;
    let slot = Atomic.get t.recon in
    let frags =
      Hashtbl.fold (fun k e acc -> (Some k, e.e_steps, e.e_bytes) :: acc) t.tbl []
    in
    let ranked =
      List.sort
        (fun (_, sa, ba) (_, sb, bb) ->
          compare
            (float_of_int sa /. float_of_int ba)
            (float_of_int sb /. float_of_int bb))
        (match slot with
        | Some r -> (None, r.rc_steps, r.rc_bytes) :: frags
        | None -> frags)
    in
    let freed = ref 0 in
    List.iter
      (fun (k, _, bytes) ->
        if !freed < want then
          let evicted =
            match k with
            | Some k ->
              Hashtbl.remove t.tbl k;
              true
            | None -> Atomic.compare_and_set t.recon slot None
          in
          if evicted then begin
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

(* A coarse in-memory cost for a reconstruction: its entries, which
   carry full value snapshots, plus the interval tables built from them
   (~313 bytes an entry on the e2e ledger, [Obj.reachable_words];
   snapshot-heavy logs run higher). *)
let recon_cost r = (Store.Segment.entry_count r * 320) + 128

(* Successes only: a read fault or a divergence propagates and leaves
   the slot as it was, so the next request tries again. The budget
   charge and rebalance run after the slot is set and may evict it
   at once; the caller still holds the reader it asked for. *)
let reconstruction t eb src =
  match Atomic.get t.recon with
  | Some r when r.rc_src == src && r.rc_eb == eb -> r.rc_reader
  | cur -> (
    let reader, steps = Reconstruct.reader eb src in
    let r =
      {
        rc_src = src;
        rc_eb = eb;
        rc_reader = reader;
        rc_bytes = recon_cost reader;
        rc_steps = steps;
      }
    in
    if Atomic.compare_and_set t.recon cur (Some r) then begin
      let replaced = match cur with Some o -> o.rc_bytes | None -> 0 in
      ignore (Atomic.fetch_and_add t.bytes (r.rc_bytes - replaced));
      (match t.budget with
      | Some b ->
        Resil.Budget.release b replaced;
        Resil.Budget.charge b r.rc_bytes;
        Resil.Budget.rebalance b
      | None -> ());
      reader
    end
    else
      (* a racing builder installed first: use its copy, drop ours *)
      match Atomic.get t.recon with
      | Some w when w.rc_src == src && w.rc_eb == eb -> w.rc_reader
      | _ -> reader)

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
