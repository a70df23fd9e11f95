module L = Trace.Log
module E = Runtime.Event
module V = Runtime.Value

let corrupt fmt = Printf.ksprintf (fun m -> raise (Varint.Corrupt m)) fmt

(* ------------------------------------------------------------------ *)
(* Scalars and small composites.                                        *)
(* ------------------------------------------------------------------ *)

let put = Varint.write

let put_s = Varint.write_signed

let put_bool buf b = Buffer.add_char buf (if b then '\001' else '\000')

let get_bool d =
  match Varint.read_byte d with
  | 0 -> false
  | 1 -> true
  | b -> corrupt "bad boolean byte %d" b

let put_opt put_x buf = function
  | None -> Buffer.add_char buf '\000'
  | Some x ->
    Buffer.add_char buf '\001';
    put_x buf x

let get_opt get_x d =
  match Varint.read_byte d with
  | 0 -> None
  | 1 -> Some (get_x d)
  | b -> corrupt "bad option tag %d" b

let put_value buf = function
  | V.Vundef -> Buffer.add_char buf '\000'
  | V.Vint n ->
    Buffer.add_char buf '\001';
    put_s buf n
  | V.Varr a ->
    Buffer.add_char buf '\002';
    put buf (Array.length a);
    (* delta-encode elements: consecutive array cells correlate *)
    let prev = ref 0 in
    Array.iter
      (fun x ->
        put_s buf (x - !prev);
        prev := x)
      a

let get_value d =
  match Varint.read_byte d with
  | 0 -> V.Vundef
  | 1 -> V.Vint (Varint.read_signed d)
  | 2 ->
    let n = Varint.read d in
    if n > 16_777_216 then corrupt "unreasonable array length %d" n;
    if n = 0 then V.Varr [||]
    else begin
      (* the first element is read before the array is made, so a
         truncated input fails before a large allocation *)
      let prev = ref (Varint.read_signed d) in
      let a = Array.make n !prev in
      for i = 1 to n - 1 do
        prev := !prev + Varint.read_signed d;
        a.(i) <- !prev
      done;
      V.Varr a
    end
  | b -> corrupt "bad value tag %d" b

let put_value_opt buf v = put_opt put_value buf v

let get_value_opt d = get_opt get_value d

let put_eref buf (r : E.eref) =
  put buf r.E.epid;
  put buf r.E.eseq

let get_eref d =
  let epid = Varint.read d in
  let eseq = Varint.read d in
  { E.epid; eseq }

(* Logged variable snapshots: (vid, value) pairs with vid deltas. *)
let put_vals buf vals =
  put buf (List.length vals);
  let prev = ref 0 in
  List.iter
    (fun (vid, v) ->
      put_s buf (vid - !prev);
      prev := vid;
      put_value buf v)
    vals

(* [n] items read in order into a list, without a per-item closure:
   plain recursion for the usual short lists, a reversed accumulator
   past [direct_max] so a long one cannot exhaust the stack. *)
let direct_max = 4096

let rec get_vals_direct d prev n =
  if n = 0 then []
  else begin
    let vid = prev + Varint.read_signed d in
    let v = get_value d in
    let rest = get_vals_direct d vid (n - 1) in
    (vid, v) :: rest
  end

let rec get_vals_rev d prev n acc =
  if n = 0 then List.rev acc
  else begin
    let vid = prev + Varint.read_signed d in
    let v = get_value d in
    get_vals_rev d vid (n - 1) ((vid, v) :: acc)
  end

let get_vals d =
  let n = Varint.read d in
  if n > 16_777_216 then corrupt "unreasonable snapshot length %d" n;
  if n <= direct_max then get_vals_direct d 0 n else get_vals_rev d 0 n []

let put_values buf vs =
  put buf (List.length vs);
  List.iter (put_value buf) vs

let rec get_values_direct d n =
  if n = 0 then []
  else begin
    let v = get_value d in
    let rest = get_values_direct d (n - 1) in
    v :: rest
  end

let rec get_values_rev d n acc =
  if n = 0 then List.rev acc else get_values_rev d (n - 1) (get_value d :: acc)

let get_values d =
  let n = Varint.read d in
  if n > 16_777_216 then corrupt "unreasonable value-list length %d" n;
  if n <= direct_max then get_values_direct d n else get_values_rev d n []

(* ------------------------------------------------------------------ *)
(* Event kinds and sync payloads.                                       *)
(* ------------------------------------------------------------------ *)

let put_kind buf (k : E.kind) =
  let tag t = Buffer.add_char buf (Char.chr t) in
  match k with
  | E.K_assign -> tag 0
  | E.K_pred b ->
    tag 1;
    put_bool buf b
  | E.K_call { callee; args } ->
    tag 2;
    put buf callee;
    put_values buf args
  | E.K_call_return { callee; ret } ->
    tag 3;
    put buf callee;
    put_value_opt buf ret
  | E.K_return { value } ->
    tag 4;
    put_value_opt buf value
  | E.K_p { sem; src; was_blocked } ->
    tag 5;
    put buf sem;
    put_opt put_eref buf src;
    put_bool buf was_blocked
  | E.K_v { sem } ->
    tag 6;
    put buf sem
  | E.K_send { chan; value } ->
    tag 7;
    put buf chan;
    put_s buf value
  | E.K_send_unblocked { chan; by } ->
    tag 8;
    put buf chan;
    put_eref buf by
  | E.K_recv { chan; value; src } ->
    tag 9;
    put buf chan;
    put_s buf value;
    put_eref buf src
  | E.K_spawn { child; callee; args } ->
    tag 10;
    put buf child;
    put buf callee;
    put_values buf args
  | E.K_join { child; result; child_exit } ->
    tag 11;
    put buf child;
    put_value_opt buf result;
    put_eref buf child_exit
  | E.K_print { value } ->
    tag 12;
    put_value buf value
  | E.K_assert { ok } ->
    tag 13;
    put_bool buf ok

let get_kind d =
  match Varint.read_byte d with
  | 0 -> E.K_assign
  | 1 -> E.K_pred (get_bool d)
  | 2 ->
    let callee = Varint.read d in
    E.K_call { callee; args = get_values d }
  | 3 ->
    let callee = Varint.read d in
    E.K_call_return { callee; ret = get_value_opt d }
  | 4 -> E.K_return { value = get_value_opt d }
  | 5 ->
    let sem = Varint.read d in
    let src = get_opt get_eref d in
    E.K_p { sem; src; was_blocked = get_bool d }
  | 6 -> E.K_v { sem = Varint.read d }
  | 7 ->
    let chan = Varint.read d in
    E.K_send { chan; value = Varint.read_signed d }
  | 8 ->
    let chan = Varint.read d in
    E.K_send_unblocked { chan; by = get_eref d }
  | 9 ->
    let chan = Varint.read d in
    let value = Varint.read_signed d in
    E.K_recv { chan; value; src = get_eref d }
  | 10 ->
    let child = Varint.read d in
    let callee = Varint.read d in
    E.K_spawn { child; callee; args = get_values d }
  | 11 ->
    let child = Varint.read d in
    let result = get_value_opt d in
    E.K_join { child; result; child_exit = get_eref d }
  | 12 -> E.K_print { value = get_value d }
  | 13 -> E.K_assert { ok = get_bool d }
  | t -> corrupt "bad event-kind tag %d" t

let put_sync_data buf = function
  | L.S_kind k ->
    Buffer.add_char buf '\000';
    put_kind buf k
  | L.S_proc_start { fid; spawn } ->
    Buffer.add_char buf '\001';
    put buf fid;
    put_opt put_eref buf spawn
  | L.S_proc_exit { fid; result } ->
    Buffer.add_char buf '\002';
    put buf fid;
    put_value_opt buf result

let get_sync_data d =
  match Varint.read_byte d with
  | 0 -> L.S_kind (get_kind d)
  | 1 ->
    let fid = Varint.read d in
    L.S_proc_start { fid; spawn = get_opt get_eref d }
  | 2 ->
    let fid = Varint.read d in
    L.S_proc_exit { fid; result = get_value_opt d }
  | t -> corrupt "bad sync-data tag %d" t

let put_block buf = function
  | L.Bfunc fid ->
    Buffer.add_char buf '\000';
    put buf fid
  | L.Bloop sid ->
    Buffer.add_char buf '\001';
    put buf sid

let get_block d =
  match Varint.read_byte d with
  | 0 -> L.Bfunc (Varint.read d)
  | 1 -> L.Bloop (Varint.read d)
  | t -> corrupt "bad block tag %d" t

let put_point buf = function
  | L.At_block_entry -> Buffer.add_char buf '\000'
  | L.After_sync sid ->
    Buffer.add_char buf '\001';
    put buf sid
  | L.At_inlined_entry fid ->
    Buffer.add_char buf '\002';
    put buf fid

let get_point d =
  match Varint.read_byte d with
  | 0 -> L.At_block_entry
  | 1 -> L.After_sync (Varint.read d)
  | 2 -> L.At_inlined_entry (Varint.read d)
  | t -> corrupt "bad prelog-point tag %d" t

(* ------------------------------------------------------------------ *)
(* Checkpoints and tier metadata (the order tier, DESIGN §16).          *)
(* ------------------------------------------------------------------ *)

let put_string buf s =
  put buf (String.length s);
  Buffer.add_string buf s

let get_string d =
  let n = Varint.read d in
  if n > 4096 then corrupt "unreasonable string length %d" n;
  Varint.read_bytes d n

(* A checkpoint page's payload: the step it cuts at, the per-pid sync
   frontier, and the full shared store. Self-contained — no codec
   context, so a damaged checkpoint never poisons its neighbours. *)
let put_ckpt buf (ck : L.ckpt) =
  put buf ck.L.ck_step;
  put buf (Array.length ck.L.ck_clock);
  Array.iter (put buf) ck.L.ck_clock;
  put buf (Array.length ck.L.ck_globals);
  Array.iter (put_value buf) ck.L.ck_globals

let get_ckpt d =
  let ck_step = Varint.read d in
  let nclock = Varint.read d in
  if nclock > 65_536 then corrupt "unreasonable checkpoint clock width %d" nclock;
  let ck_clock = Array.make nclock 0 in
  for i = 0 to nclock - 1 do
    ck_clock.(i) <- Varint.read d
  done;
  let nglb = Varint.read d in
  if nglb > 16_777_216 then corrupt "unreasonable checkpoint store size %d" nglb;
  let ck_globals =
    if nglb = 0 then [||]
    else begin
      let a = Array.make nglb (get_value d) in
      for i = 1 to nglb - 1 do
        a.(i) <- get_value d
      done;
      a
    end
  in
  { L.ck_step; ck_clock; ck_globals }

let put_tier buf = function
  | L.T_content -> Buffer.add_char buf '\000'
  | L.T_order { o_sched; o_engine; o_max_steps } ->
    Buffer.add_char buf '\001';
    put_string buf o_sched;
    put_string buf o_engine;
    put buf o_max_steps

let get_tier d =
  match Varint.read_byte d with
  | 0 -> L.T_content
  | 1 ->
    let o_sched = get_string d in
    let o_engine = get_string d in
    L.T_order { o_sched; o_engine; o_max_steps = Varint.read d }
  | t -> corrupt "bad tier tag %d" t

(* ------------------------------------------------------------------ *)
(* Entries.                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-page codec context: [seq_at] and [step_at] both advance slowly
   between consecutive entries of one process, so each entry stores only
   zigzag deltas against the previous one. The context resets at every
   page boundary, keeping pages independently decodable. *)
type ctx = { mutable cseq : int; mutable cstep : int }

let ctx () = { cseq = 0; cstep = 0 }

let put_seq_step buf c ~seq ~step =
  put_s buf (seq - c.cseq);
  put_s buf (step - c.cstep);
  c.cseq <- seq;
  c.cstep <- step

(* Decoding reads the two deltas in order, one call each, so no pair
   is built per entry. *)
let get_seq d c =
  let seq = c.cseq + Varint.read_signed d in
  c.cseq <- seq;
  seq

let get_step d c =
  let step = c.cstep + Varint.read_signed d in
  c.cstep <- step;
  step

(* Postlog [via_return] is folded into the entry tag (2/5/6): it is a
   rare field, and most postlogs pay nothing for it. *)
let encode_entry buf c = function
  | L.Prelog { block; caller_sid; seq_at; step_at; vals } ->
    Buffer.add_char buf '\001';
    put_block buf block;
    put buf (match caller_sid with None -> 0 | Some sid -> sid + 1);
    put_seq_step buf c ~seq:seq_at ~step:step_at;
    put_vals buf vals
  | L.Postlog { block; seq_at; step_at; vals; ret; via_return } ->
    (match via_return with
    | None -> Buffer.add_char buf '\002'
    | Some None -> Buffer.add_char buf '\005'
    | Some (Some _) -> Buffer.add_char buf '\006');
    put_block buf block;
    put_seq_step buf c ~seq:seq_at ~step:step_at;
    put_vals buf vals;
    put_value_opt buf ret;
    (match via_return with
    | Some (Some v) -> put_value buf v
    | None | Some None -> ())
  | L.Sync_prelog { point; seq_at; step_at; vals } ->
    Buffer.add_char buf '\003';
    put_point buf point;
    put_seq_step buf c ~seq:seq_at ~step:step_at;
    put_vals buf vals
  | L.Sync { sid; seq; step_at; data } ->
    Buffer.add_char buf '\004';
    put buf (match sid with None -> 0 | Some s -> s + 1);
    put_seq_step buf c ~seq ~step:step_at;
    put_sync_data buf data

let decode_entry d c =
  match Varint.read_byte d with
  | 1 ->
    let block = get_block d in
    let caller_sid =
      match Varint.read d with 0 -> None | n -> Some (n - 1)
    in
    let seq_at = get_seq d c in
    let step_at = get_step d c in
    L.Prelog { block; caller_sid; seq_at; step_at; vals = get_vals d }
  | (2 | 5 | 6) as tag ->
    let block = get_block d in
    let seq_at = get_seq d c in
    let step_at = get_step d c in
    let vals = get_vals d in
    let ret = get_value_opt d in
    let via_return =
      match tag with
      | 2 -> None
      | 5 -> Some None
      | _ -> Some (Some (get_value d))
    in
    L.Postlog { block; seq_at; step_at; vals; ret; via_return }
  | 3 ->
    let point = get_point d in
    let seq_at = get_seq d c in
    let step_at = get_step d c in
    L.Sync_prelog { point; seq_at; step_at; vals = get_vals d }
  | 4 ->
    let sid = match Varint.read d with 0 -> None | n -> Some (n - 1) in
    let seq = get_seq d c in
    let step_at = get_step d c in
    L.Sync { sid; seq; step_at; data = get_sync_data d }
  | t -> corrupt "bad entry tag %d" t
