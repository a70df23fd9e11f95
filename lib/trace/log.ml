type eref = Runtime.Event.eref

type sync_data =
  | S_kind of Runtime.Event.kind
  | S_proc_start of { fid : int; spawn : eref option }
  | S_proc_exit of { fid : int; result : Runtime.Value.t option }

type block = Bfunc of int | Bloop of int

let pp_block ppf = function
  | Bfunc fid -> Format.fprintf ppf "f%d" fid
  | Bloop sid -> Format.fprintf ppf "loop@s%d" sid

type prelog_point =
  | At_block_entry
  | After_sync of int
  | At_inlined_entry of int

(* How the log was captured (DESIGN §16). Content logs carry value
   snapshots in pre/post/sync-unit logs and can be debugged directly.
   Order logs carry only the sync-event partial order plus periodic
   checkpoints; debugging them first reconstructs an equivalent content
   log by deterministic re-execution, which needs the recorded
   scheduler and step budget. *)
type tier_meta = { o_sched : string; o_engine : string; o_max_steps : int }

type tier = T_content | T_order of tier_meta

(* A periodic full-state checkpoint: the shared store and the global
   sync frontier (per-pid count of sync events performed) at step
   [ck_step]. The cut is inclusive: every log entry with
   [step_at <= ck_step] is covered by the snapshot, entries strictly
   after it are not — restore seeds from the checkpoint and applies
   only entries with [step_at > ck_step]. *)
type ckpt = {
  ck_step : int;
  ck_clock : int array;
  ck_globals : Runtime.Value.t array;
}

type entry =
  | Prelog of {
      block : block;
      caller_sid : int option;
      seq_at : int;
      step_at : int;
      vals : (int * Runtime.Value.t) list;
    }
  | Postlog of {
      block : block;
      seq_at : int;
      step_at : int;
      vals : (int * Runtime.Value.t) list;
      ret : Runtime.Value.t option;
      via_return : Runtime.Value.t option option;
    }
  | Sync_prelog of {
      point : prelog_point;
      seq_at : int;
      step_at : int;
      vals : (int * Runtime.Value.t) list;
    }
  | Sync of { sid : int option; seq : int; step_at : int; data : sync_data }

type t = {
  nprocs : int;
  entries : entry array array;
  stops : int array;
  tier : tier;
  ckpts : ckpt array;
  base : int array;
}

let content ~nprocs ~entries ~stops =
  {
    nprocs;
    entries;
    stops;
    tier = T_content;
    ckpts = [||];
    base = Array.make nprocs 0;
  }

let tier_name = function T_content -> "content" | T_order _ -> "order"

let order_tier ~sched ~max_steps =
  T_order
    {
      o_sched = Runtime.Sched.string_of_policy sched;
      o_engine = "vm";
      o_max_steps = max_steps;
    }

(* The sync skeleton of a log: exactly what an order-tier log records.
   Used by `ppd log compact` and by the reconstruction validator. *)
let sync_entries t ~pid =
  Array.to_list t.entries.(pid)
  |> List.filter (function Sync _ -> true | _ -> false)

type interval = {
  iv_id : int;
  iv_pid : int;
  iv_block : block;
  iv_fid : int;
  iv_prelog : int;
  iv_postlog : int option;
  iv_seq_start : int;
  iv_seq_end : int option;
  iv_parent : int option;
  iv_children : int list;
}

let entry_seq_at = function
  | Prelog { seq_at; _ } | Postlog { seq_at; _ } | Sync_prelog { seq_at; _ } ->
    seq_at
  | Sync { seq; _ } -> seq

let entry_step_at = function
  | Prelog { step_at; _ }
  | Postlog { step_at; _ }
  | Sync_prelog { step_at; _ }
  | Sync { step_at; _ } ->
    step_at

(* Reconstruct intervals from the entry stream: prelogs open, postlogs
   close the innermost open interval of the same block. [stmt_fid] maps
   a loop's sid to its enclosing function (loop intervals report that
   function as their [iv_fid]). *)
let intervals ?(stmt_fid = fun _ -> -1) t ~pid =
  let entries = t.entries.(pid) in
  let finished = ref [] in
  let stack = ref [] in
  let next_id = ref 0 in
  let fid_of = function Bfunc fid -> fid | Bloop sid -> stmt_fid sid in
  let fresh block prelog_idx seq_at =
    let iv =
      {
        iv_id = !next_id;
        iv_pid = pid;
        iv_block = block;
        iv_fid = fid_of block;
        iv_prelog = prelog_idx;
        iv_postlog = None;
        iv_seq_start = seq_at;
        iv_seq_end = None;
        iv_parent = None;
        iv_children = [];
      }
    in
    incr next_id;
    iv
  in
  (* The stack holds (interval, children-so-far-reversed). *)
  Array.iteri
    (fun idx e ->
      match e with
      | Prelog { block; seq_at; _ } ->
        let parent = match !stack with [] -> None | (iv, _) :: _ -> Some iv.iv_id in
        let iv = { (fresh block idx seq_at) with iv_parent = parent } in
        stack := (iv, ref []) :: !stack
      | Postlog { block; seq_at; _ } -> (
        match !stack with
        | (iv, kids) :: rest ->
          if iv.iv_block <> block then
            invalid_arg "Log.intervals: mismatched postlog";
          let closed =
            {
              iv with
              iv_postlog = Some idx;
              iv_seq_end = Some seq_at;
              iv_children = List.rev !kids;
            }
          in
          finished := closed :: !finished;
          (match rest with
          | (_, pkids) :: _ -> pkids := closed.iv_id :: !pkids
          | [] -> ());
          stack := rest
        | [] -> invalid_arg "Log.intervals: postlog without prelog")
      | Sync_prelog _ | Sync _ -> ())
    entries;
  (* Any intervals still open (program halted mid-block). *)
  let rec drain () =
    match !stack with
    | [] -> ()
    | (iv, kids) :: rest ->
      finished := { iv with iv_children = List.rev !kids } :: !finished;
      (match rest with
      | (_, pkids) :: _ -> pkids := iv.iv_id :: !pkids
      | [] -> ());
      stack := rest;
      drain ()
  in
  drain ();
  let arr = Array.of_list !finished in
  Array.sort (fun a b -> Int.compare a.iv_id b.iv_id) arr;
  arr

let entry_count t =
  Array.fold_left (fun acc es -> acc + Array.length es) 0 t.entries

let find_enclosing ivs ~seq =
  (* innermost = maximal seq_start among intervals containing seq *)
  Array.fold_left
    (fun best iv ->
      let contains =
        seq >= iv.iv_seq_start
        && match iv.iv_seq_end with None -> true | Some e -> seq < e
      in
      if not contains then best
      else
        match best with
        | Some b when b.iv_seq_start >= iv.iv_seq_start -> best
        | _ -> Some iv)
    None ivs

let pp_vals (p : Lang.Prog.t) ppf vals =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (vid, v) ->
      Format.fprintf ppf "%s=%a" p.vars.(vid).vname Runtime.Value.pp v)
    ppf vals

let pp_sync_data ppf = function
  | S_kind k -> Runtime.Event.pp_kind ppf k
  | S_proc_start { fid; spawn } ->
    Format.fprintf ppf "proc-start f%d%s" fid
      (match spawn with
      | None -> ""
      | Some r -> Format.asprintf " by %a" Runtime.Event.pp_eref r)
  | S_proc_exit { fid; result } ->
    Format.fprintf ppf "proc-exit f%d result=%s" fid
      (match result with
      | None -> "-"
      | Some v -> Runtime.Value.to_string v)

let block_name (p : Lang.Prog.t) = function
  | Bfunc fid -> p.Lang.Prog.funcs.(fid).fname
  | Bloop sid -> Printf.sprintf "loop@s%d" sid

let pp_entry (p : Lang.Prog.t) ppf = function
  | Prelog { block; seq_at; vals; _ } ->
    Format.fprintf ppf "prelog %s @%d {%a}" (block_name p block) seq_at
      (pp_vals p) vals
  | Postlog { block; seq_at; vals; ret; _ } ->
    Format.fprintf ppf "postlog %s @%d {%a} ret=%s" (block_name p block)
      seq_at (pp_vals p) vals
      (match ret with
      | None -> "-"
      | Some v -> Runtime.Value.to_string v)
  | Sync_prelog { point; seq_at; vals; _ } ->
    let where =
      match point with
      | At_block_entry -> "entry"
      | After_sync sid -> Printf.sprintf "after s%d" sid
      | At_inlined_entry fid ->
        Printf.sprintf "inlined %s" p.funcs.(fid).fname
    in
    Format.fprintf ppf "sync-prelog (%s) @%d {%a}" where seq_at (pp_vals p)
      vals
  | Sync { sid; seq; data; _ } ->
    Format.fprintf ppf "sync %s @%d %a"
      (match sid with None -> "-" | Some s -> "s" ^ string_of_int s)
      seq pp_sync_data data

let pp (p : Lang.Prog.t) ppf t =
  Format.fprintf ppf "@[<v>";
  Array.iteri
    (fun pid entries ->
      Format.fprintf ppf "process %d (%d entries):" pid (Array.length entries);
      Array.iter
        (fun e -> Format.fprintf ppf "@,  %a" (pp_entry p) e)
        entries;
      if pid < Array.length t.entries - 1 then Format.fprintf ppf "@,")
    t.entries;
  Format.fprintf ppf "@]"
