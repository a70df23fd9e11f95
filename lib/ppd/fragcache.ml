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
   lookup just replays the interval again.

   The hit/miss counters are plain atomics, always live (unlike the
   Obs mirrors, which are no-ops until profiling is enabled): the T13
   bench and the `serverStats` method read exact numbers from here. *)

type stats = { hits : int; misses : int; inserts : int }

type entry = {
  e_outcome : Emulator.outcome;
  e_bytes : int;  (* charged estimate *)
  e_steps : int;  (* replay cost: what eviction throws away *)
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
}

let create ?budget () =
  {
    bp = Atomic.make None;
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
   first. Returns the bytes actually freed; releases them from the
   attached budget itself (the [Resil.Budget] reclaimer contract). *)
let reclaim t want =
  if want <= 0 then 0
  else begin
    Mutex.lock t.lock;
    let entries = Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl [] in
    let ranked =
      List.sort
        (fun (_, a) (_, b) ->
          compare
            (float_of_int a.e_steps /. float_of_int a.e_bytes)
            (float_of_int b.e_steps /. float_of_int b.e_bytes))
        entries
    in
    let freed = ref 0 in
    List.iter
      (fun (k, e) ->
        if !freed < want then begin
          Hashtbl.remove t.tbl k;
          freed := !freed + e.e_bytes;
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
