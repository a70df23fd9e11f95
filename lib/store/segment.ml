module L = Trace.Log
module E = Runtime.Event

let magic = "PPDLOG2\n"

let trailer_magic = "PPDEND2\n"

let trailer_len = 16 (* u64-le footer offset + trailer magic *)

(* Entries are batched into page records so the framing (tag, length,
   CRC-32) amortises over ~4 KiB of payload instead of taxing every
   entry; a page is also the demand-paging unit the reader decodes and
   caches. *)
let page_threshold = 4096

let unreadable path fmt =
  Printf.ksprintf
    (fun reason -> raise (Trace.Log_io.Unreadable { path; reason }))
    fmt

(* ------------------------------------------------------------------ *)
(* Fixed-width little-endian scalars (CRCs and the trailer pointer).    *)
(* ------------------------------------------------------------------ *)

let add_u32_le buf v =
  for i = 0 to 3 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let add_u64_le buf v =
  for i = 0 to 7 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * i)) land 0xff))
  done

let get_u32_le s pos =
  let b i = Char.code s.[pos + i] in
  b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24)

let get_u64_le s pos =
  let v = ref 0 in
  for i = 7 downto 0 do
    v := (!v lsl 8) lor Char.code s.[pos + i]
  done;
  !v

(* The writer keeps a skeleton of every entry (positions and counters,
   no snapshots) so closing can run [Log.intervals] for the footer index
   without holding the real log in memory. *)
let strip = function
  | L.Prelog { block; seq_at; step_at; _ } ->
    L.Prelog { block; caller_sid = None; seq_at; step_at; vals = [] }
  | L.Postlog { block; seq_at; step_at; _ } ->
    L.Postlog
      { block; seq_at; step_at; vals = []; ret = None; via_return = None }
  | L.Sync_prelog { point; seq_at; step_at; _ } ->
    L.Sync_prelog { point; seq_at; step_at; vals = [] }
  | L.Sync { sid; seq; step_at; _ } ->
    L.Sync { sid; seq; step_at; data = L.S_kind E.K_assign }

type damage = { dmg_offset : int; dmg_reason : string }

(* Chaos sites (no-ops until a plan is armed, see lib/fault). The sink
   site models the traced process dying at an exact byte offset of the
   log; the write site models storage misbehaving on the Nth write; the
   read site models a page read failing under the demand pager. *)
let f_sink = Fault.site "trace.sink"

let f_write = Fault.site "store.segment.write"

let f_read = Fault.site "store.segment.read"

(* ------------------------------------------------------------------ *)
(* Writer.                                                              *)
(* ------------------------------------------------------------------ *)

module Writer = struct
  type dest = D_channel of out_channel | D_buffer of Buffer.t

  (* Per-process state: the open page plus the footer bookkeeping. *)
  type pidw = {
    pbuf : Buffer.t;  (* encoded entries of the open page *)
    mutable pcount : int;
    mutable pctx : Wire.ctx;
    mutable depth : int;  (* open interval nesting *)
    mutable pages : (int * int) list;  (* (offset, count), reversed *)
    mutable skel : L.entry list;  (* stripped, reversed *)
  }

  type t = {
    dest : dest;
    tier : L.tier;
    mutable pos : int;
    mutable pids : pidw array;
    mutable ckpts : (int * int) list;  (* (offset, step), reversed *)
    mutable finalized : bool;
    mutable closed : bool;
    mutable dead : string option;
        (* an injected fault killed the stream: swallow further writes,
           as a killed process would, leaving the durable prefix *)
  }

  (* Apply an armed fault plan to one write: returns the bytes that
     actually reach the destination and, for fatal kinds, the reason
     the writer dies afterwards. *)
  let injected w s =
    match Fault.fire_at f_sink ~pos:(w.pos + String.length s) with
    | Some (_, cut) ->
      ( String.sub s 0 (min (String.length s) (max 0 (cut - w.pos))),
        Some (Printf.sprintf "injected crash in the log sink at byte %d" cut) )
    | None -> (
      match Fault.fire f_write with
      | None -> (s, None)
      | Some Fault.Flip ->
        let b = Bytes.of_string s in
        if Bytes.length b > 0 then begin
          let i = Fault.mix f_write w.pos mod Bytes.length b in
          let bit = Fault.mix f_write (w.pos + 1) mod 8 in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit)))
        end;
        (Bytes.to_string b, None)
      | Some Fault.Torn ->
        (String.sub s 0 (String.length s / 2), Some "injected torn write")
      | Some Fault.Short ->
        ( String.sub s 0 (max 0 (String.length s - 1)),
          Some "injected short write" )
      | Some Fault.Enospc -> ("", Some "injected ENOSPC")
      | Some (Fault.Crash | Fault.Transient | Fault.Budget) ->
        ("", Some "injected crash in the log writer"))

  let emit w s =
    match w.dead with
    | Some _ -> ()
    | None ->
      let s, death = injected w s in
      (match w.dest with
      | D_channel oc -> output_string oc s
      | D_buffer b -> Buffer.add_string b s);
      w.pos <- w.pos + String.length s;
      (match death with
      | None -> ()
      | Some reason ->
        w.dead <- Some reason;
        (match w.dest with D_channel oc -> flush oc | D_buffer _ -> ()))

  let make ?(tier = L.T_content) dest =
    let w =
      {
        dest;
        tier;
        pos = 0;
        pids = [||];
        ckpts = [];
        finalized = false;
        closed = false;
        dead = None;
      }
    in
    emit w magic;
    w

  let to_file ?tier path = make ?tier (D_channel (open_out_bin path))

  let to_buffer ?tier buf = make ?tier (D_buffer buf)

  let ensure_pid w pid =
    let n = Array.length w.pids in
    if pid >= n then
      w.pids <-
        Array.init (pid + 1) (fun i ->
            if i < n then w.pids.(i)
            else
              {
                pbuf = Buffer.create 256;
                pcount = 0;
                pctx = Wire.ctx ();
                depth = 0;
                pages = [];
                skel = [];
              })

  let flush_page w ~pid pw =
    if pw.pcount > 0 then begin
      let payload = Buffer.create (Buffer.length pw.pbuf + 8) in
      Varint.write payload pid;
      Varint.write payload pw.pcount;
      Buffer.add_buffer payload pw.pbuf;
      let p = Buffer.contents payload in
      let frame = Buffer.create (String.length p + 10) in
      Buffer.add_char frame '\001';
      Varint.write frame (String.length p);
      Buffer.add_string frame p;
      add_u32_le frame (Crc32.digest p);
      pw.pages <- (w.pos, pw.pcount) :: pw.pages;
      emit w (Buffer.contents frame);
      Buffer.clear pw.pbuf;
      pw.pcount <- 0;
      pw.pctx <- Wire.ctx ();
      match w.dest with D_channel oc -> flush oc | D_buffer _ -> ()
    end

  let append w ~pid entry =
    if w.finalized then invalid_arg "Segment.Writer.append: writer is closed";
    ensure_pid w pid;
    let pw = w.pids.(pid) in
    Wire.encode_entry pw.pbuf pw.pctx entry;
    pw.pcount <- pw.pcount + 1;
    pw.skel <- strip entry :: pw.skel;
    (match entry with
    | L.Prelog _ -> pw.depth <- pw.depth + 1
    | L.Postlog _ -> pw.depth <- pw.depth - 1
    | L.Sync_prelog _ | L.Sync _ -> ());
    (* durability points: the page is full, or a top-level e-block of
       this process just closed (§5.6) *)
    if Buffer.length pw.pbuf >= page_threshold then flush_page w ~pid pw
    else
      match entry with
      | L.Postlog _ when pw.depth <= 0 -> flush_page w ~pid pw
      | _ -> ()

  (* A checkpoint gets its own frame (tag 3) so the salvage scan can
     skip or keep it like any other frame, and the footer can point at
     it. Checkpoints are rare (one per interval of [ckpt_every] steps),
     so each is a durability point of its own. *)
  let append_ckpt w (ck : L.ckpt) =
    if w.finalized then
      invalid_arg "Segment.Writer.append_ckpt: writer is closed";
    let payload = Buffer.create 64 in
    Wire.put_ckpt payload ck;
    let p = Buffer.contents payload in
    let frame = Buffer.create (String.length p + 10) in
    Buffer.add_char frame '\003';
    Varint.write frame (String.length p);
    Buffer.add_string frame p;
    add_u32_le frame (Crc32.digest p);
    w.ckpts <- (w.pos, ck.L.ck_step) :: w.ckpts;
    emit w (Buffer.contents frame);
    match w.dest with D_channel oc -> flush oc | D_buffer _ -> ()

  let skeleton_log w ~stops =
    L.content
      ~nprocs:(Array.length w.pids)
      ~entries:(Array.map (fun pw -> Array.of_list (List.rev pw.skel)) w.pids)
      ~stops

  (* Stops when the run died before [finish]: everything we saw. *)
  let default_stops w =
    Array.map
      (fun pw ->
        List.fold_left (fun acc e -> max acc (L.entry_seq_at e + 1)) 0 pw.skel)
      w.pids

  let encode_footer w ~stops =
    let log = skeleton_log w ~stops in
    let buf = Buffer.create 256 in
    Varint.write buf log.L.nprocs;
    (* logging tier, then the checkpoint table: (offset delta, step
       delta) pairs in file order, so seek-to-step restores can find
       the nearest checkpoint without touching any page *)
    Wire.put_tier buf w.tier;
    let cks = Array.of_list (List.rev w.ckpts) in
    Varint.write buf (Array.length cks);
    let prev_off = ref 0 and prev_step = ref 0 in
    Array.iter
      (fun (off, step) ->
        Varint.write buf (off - !prev_off);
        prev_off := off;
        Varint.write buf (step - !prev_step);
        prev_step := step)
      cks;
    for pid = 0 to log.L.nprocs - 1 do
      let pw = w.pids.(pid) in
      let entries = log.L.entries.(pid) in
      Varint.write buf stops.(pid);
      (* page table: (offset delta, entry count) per page *)
      let pages = Array.of_list (List.rev pw.pages) in
      Varint.write buf (Array.length pages);
      let prev = ref 0 in
      Array.iter
        (fun (off, count) ->
          Varint.write buf (off - !prev);
          prev := off;
          Varint.write buf count)
        pages;
      (* interval table: rows in iv_id (= prelog) order. The fid is not
         stored — it derives from the block and the reader's stmt_fid
         map, exactly as [Log.intervals] computes it. Each row doubles
         as the prelog's restore-snapshot coordinate (seq_start, step),
         so no separate snapshot table is needed for prelogs. *)
      let ivs = L.intervals log ~pid in
      Varint.write buf (Array.length ivs);
      let prev_prelog = ref 0 and prev_seq = ref 0 and prev_step = ref 0 in
      Array.iteri
        (fun i (iv : L.interval) ->
          Wire.put_block buf iv.L.iv_block;
          Varint.write buf (iv.L.iv_prelog - !prev_prelog);
          prev_prelog := iv.L.iv_prelog;
          Varint.write buf
            (match iv.L.iv_postlog with
            | None -> 0
            | Some p -> p - iv.L.iv_prelog);
          Varint.write_signed buf (iv.L.iv_seq_start - !prev_seq);
          prev_seq := iv.L.iv_seq_start;
          Varint.write buf
            (match iv.L.iv_seq_end with
            | None -> 0
            | Some e -> e - iv.L.iv_seq_start + 1);
          Varint.write buf
            (match iv.L.iv_parent with None -> 0 | Some p -> i - p);
          let step =
            match entries.(iv.L.iv_prelog) with
            | L.Prelog { step_at; _ } -> step_at
            | _ -> 0
          in
          Varint.write_signed buf (step - !prev_step);
          prev_step := step)
        ivs;
      (* sync-unit prelogs also carry restore snapshots (§6.2) *)
      let snaps =
        Array.to_list entries
        |> List.filter_map (function
             | L.Sync_prelog { seq_at; step_at; _ } -> Some (seq_at, step_at)
             | L.Prelog _ | L.Postlog _ | L.Sync _ -> None)
      in
      Varint.write buf (List.length snaps);
      let prev_seq = ref 0 and prev_step = ref 0 in
      List.iter
        (fun (seq, step) ->
          Varint.write_signed buf (seq - !prev_seq);
          prev_seq := seq;
          Varint.write_signed buf (step - !prev_step);
          prev_step := step)
        snaps
    done;
    buf

  let finalize w ~stops =
    if not w.finalized then begin
      Array.iteri (fun pid pw -> flush_page w ~pid pw) w.pids;
      w.finalized <- true;
      let fpayload = Buffer.contents (encode_footer w ~stops) in
      let footer_pos = w.pos in
      let tail = Buffer.create (String.length fpayload + 24) in
      Buffer.add_char tail '\002';
      Varint.write tail (String.length fpayload);
      Buffer.add_string tail fpayload;
      add_u32_le tail (Crc32.digest fpayload);
      add_u64_le tail footer_pos;
      Buffer.add_string tail trailer_magic;
      emit w (Buffer.contents tail);
      match w.dest with D_channel oc -> flush oc | D_buffer _ -> ()
    end

  let sink w =
    {
      Trace.Logger.sink_entry = (fun ~pid entry -> append w ~pid entry);
      sink_ckpt = (fun ck -> append_ckpt w ck);
      sink_close = (fun ~stops -> finalize w ~stops);
    }

  let close w =
    if not w.closed then begin
      w.closed <- true;
      if not w.finalized then finalize w ~stops:(default_stops w);
      match w.dest with D_channel oc -> close_out oc | D_buffer _ -> ()
    end

  let bytes_written w = w.pos

  let failure w = w.dead
end

let write_log w (log : L.t) =
  Array.iteri
    (fun pid entries -> Array.iter (fun e -> Writer.append w ~pid e) entries)
    log.L.entries;
  Array.iter (fun ck -> Writer.append_ckpt w ck) log.L.ckpts;
  Writer.finalize w ~stops:log.L.stops

let save path (log : L.t) =
  let w = Writer.to_file ~tier:log.L.tier path in
  Fun.protect ~finally:(fun () -> Writer.close w) (fun () -> write_log w log)

let encoded_size (log : L.t) =
  let buf = Buffer.create 4096 in
  let w = Writer.to_buffer ~tier:log.L.tier buf in
  write_log w log;
  Writer.bytes_written w

(* ------------------------------------------------------------------ *)
(* Frame and footer parsing.                                            *)
(* ------------------------------------------------------------------ *)

type frame =
  | F_page of { fpid : int; fentries : L.entry array; fnext : int }
  | F_ckpt of { fck : L.ckpt; fnext : int }
  | F_footer of { fpos : int; flen : int; fnext : int }
      (* payload bounds in the raw file, so footer decoding can report
         damage at absolute offsets *)

let parse_frame raw off =
  let file_len = String.length raw in
  try
    if off >= file_len then raise (Varint.Corrupt "unexpected end of file");
    let tag = raw.[off] in
    if tag <> '\001' && tag <> '\002' && tag <> '\003' then
      raise
        (Varint.Corrupt
           (Printf.sprintf "unknown frame type 0x%02x" (Char.code tag)));
    let d = Varint.decoder ~pos:(off + 1) raw in
    let plen = Varint.read d in
    let ppos = d.Varint.pos in
    if plen > file_len - ppos - 4 then
      raise (Varint.Corrupt "frame extends past the end of the file");
    if Crc32.digest ~pos:ppos ~len:plen raw <> get_u32_le raw (ppos + plen)
    then raise (Varint.Corrupt "payload fails its CRC-32 check");
    let fnext = ppos + plen + 4 in
    match tag with
    | '\001' ->
      let pd = Varint.decoder ~pos:ppos ~limit:(ppos + plen) raw in
      let fpid = Varint.read pd in
      let count = Varint.read pd in
      if count > plen then
        raise (Varint.Corrupt "page claims more entries than it has bytes");
      let ctx = Wire.ctx () in
      let fentries = Array.init count (fun _ -> Wire.decode_entry pd ctx) in
      if not (Varint.at_end pd) then
        raise (Varint.Corrupt "trailing bytes inside a page frame");
      Ok (F_page { fpid; fentries; fnext })
    | '\003' ->
      let cd = Varint.decoder ~pos:ppos ~limit:(ppos + plen) raw in
      let fck = Wire.get_ckpt cd in
      if not (Varint.at_end cd) then
        raise (Varint.Corrupt "trailing bytes inside a checkpoint frame");
      Ok (F_ckpt { fck; fnext })
    | _ -> Ok (F_footer { fpos = ppos; flen = plen; fnext })
  with Varint.Corrupt m -> Error m

(* The decoded footer: page table plus raw interval rows per process.
   Interval rows materialise into {!Trace.Log.interval} values only when
   queried, because the fid of a loop block needs the caller's
   [stmt_fid] map. *)
type pid_index = {
  px_stop : int;
  px_pages : (int * int) array;  (* (file offset, entry count) per page *)
  px_first : int array;  (* first entry index per page *)
  px_count : int;  (* total entries *)
  px_blocks : L.block array;
  px_prelog : int array;
  px_postlog : int array;  (* -1 = still open *)
  px_seq_start : int array;
  px_seq_end : int array;  (* -1 = still open *)
  px_parent : int array;  (* -1 = root *)
  px_iv_steps : int array;  (* prelog step_at per interval *)
  px_snaps : (int * int) array;  (* sync-prelog (seq_at, step_at) *)
}

(* The decoded footer head: logging tier, checkpoint directory, then
   the per-process tables. *)
type footer = {
  ft_tier : L.tier;
  ft_ckpts : (int * int) array;  (* (file offset, step) per checkpoint *)
  ft_index : pid_index array;
}

(* Decodes in place over the whole file (not a payload substring), so a
   [Varint.Corrupt] raised mid-footer carries the absolute file offset
   of the bad byte. Decoding a substring here used to make those
   messages point at payload-relative offsets — i.e. at the wrong page
   of the file (the middle of page 1, typically) when printed in a
   damage report. *)
let parse_footer raw ~pos ~limit =
  let d = Varint.decoder ~pos ~limit raw in
  let nprocs = Varint.read d in
  if nprocs > 65_536 then raise (Varint.Corrupt "unreasonable process count");
  let ft_tier = Wire.get_tier d in
  let nckpts = Varint.read d in
  if nckpts > 1_000_000 then
    raise (Varint.Corrupt "unreasonable checkpoint count");
  let prev_off = ref 0 and prev_step = ref 0 in
  let ft_ckpts =
    Array.init nckpts (fun _ ->
        let off = !prev_off + Varint.read d in
        prev_off := off;
        let step = !prev_step + Varint.read d in
        prev_step := step;
        (off, step))
  in
  let index =
    Array.init nprocs (fun _ ->
        let px_stop = Varint.read d in
        let npages = Varint.read d in
        if npages > 100_000_000 then
          raise (Varint.Corrupt "unreasonable page count");
        let prev = ref 0 in
        let px_pages =
          Array.init npages (fun _ ->
              let off = !prev + Varint.read d in
              prev := off;
              let count = Varint.read d in
              if count > 100_000_000 then
                raise (Varint.Corrupt "unreasonable page entry count");
              (off, count))
        in
        let px_first = Array.make npages 0 in
        let total = ref 0 in
        Array.iteri
          (fun i (_, count) ->
            px_first.(i) <- !total;
            total := !total + count)
          px_pages;
        let px_count = !total in
        let nivs = Varint.read d in
        if nivs > px_count then
          raise (Varint.Corrupt "interval table larger than the entry count");
        let px_blocks = Array.make nivs (L.Bfunc 0) in
        let px_prelog = Array.make nivs 0 in
        let px_postlog = Array.make nivs (-1) in
        let px_seq_start = Array.make nivs 0 in
        let px_seq_end = Array.make nivs (-1) in
        let px_parent = Array.make nivs (-1) in
        let px_iv_steps = Array.make nivs 0 in
        let prev_prelog = ref 0 and prev_seq = ref 0 and prev_step = ref 0 in
        for i = 0 to nivs - 1 do
          px_blocks.(i) <- Wire.get_block d;
          let prelog = !prev_prelog + Varint.read d in
          if i > 0 && prelog <= !prev_prelog then
            raise (Varint.Corrupt "interval prelogs out of order");
          if prelog >= px_count then
            raise (Varint.Corrupt "interval prelog beyond the entry count");
          prev_prelog := prelog;
          px_prelog.(i) <- prelog;
          (match Varint.read d with
          | 0 -> ()
          | k ->
            if prelog + k >= px_count then
              raise (Varint.Corrupt "interval postlog beyond the entry count");
            px_postlog.(i) <- prelog + k);
          let seq_start = !prev_seq + Varint.read_signed d in
          prev_seq := seq_start;
          px_seq_start.(i) <- seq_start;
          (match Varint.read d with
          | 0 -> ()
          | k -> px_seq_end.(i) <- seq_start + k - 1);
          (match Varint.read d with
          | 0 -> ()
          | dist ->
            if dist > i then
              raise (Varint.Corrupt "interval parent points forward");
            px_parent.(i) <- i - dist);
          let step = !prev_step + Varint.read_signed d in
          prev_step := step;
          px_iv_steps.(i) <- step
        done;
        let nsnaps = Varint.read d in
        if nsnaps > px_count then
          raise (Varint.Corrupt "snapshot table larger than the entry count");
        let prev_seq = ref 0 and prev_step = ref 0 in
        let px_snaps =
          Array.init nsnaps (fun _ ->
              let seq = !prev_seq + Varint.read_signed d in
              prev_seq := seq;
              let step = !prev_step + Varint.read_signed d in
              prev_step := step;
              (seq, step))
        in
        {
          px_stop;
          px_pages;
          px_first;
          px_count;
          px_blocks;
          px_prelog;
          px_postlog;
          px_seq_start;
          px_seq_end;
          px_parent;
          px_iv_steps;
          px_snaps;
        })
  in
  if not (Varint.at_end d) then
    raise (Varint.Corrupt "trailing bytes after the footer tables");
  { ft_tier; ft_ckpts; ft_index = index }

(* Materialise [Log.interval] values from the raw rows; children rebuild
   from the parent pointers (nesting is a stack discipline, so
   increasing id order is chronological order). *)
let materialize_intervals px ~stmt_fid ~pid =
  let n = Array.length px.px_blocks in
  let kids = Array.make n [] in
  for i = n - 1 downto 0 do
    let p = px.px_parent.(i) in
    if p >= 0 then kids.(p) <- i :: kids.(p)
  done;
  Array.init n (fun i ->
      {
        L.iv_id = i;
        iv_pid = pid;
        iv_block = px.px_blocks.(i);
        iv_fid =
          (match px.px_blocks.(i) with
          | L.Bfunc fid -> fid
          | L.Bloop sid -> stmt_fid sid);
        iv_prelog = px.px_prelog.(i);
        iv_postlog =
          (if px.px_postlog.(i) < 0 then None else Some px.px_postlog.(i));
        iv_seq_start = px.px_seq_start.(i);
        iv_seq_end =
          (if px.px_seq_end.(i) < 0 then None else Some px.px_seq_end.(i));
        iv_parent = (if px.px_parent.(i) < 0 then None else Some px.px_parent.(i));
        iv_children = kids.(i);
      })

(* ------------------------------------------------------------------ *)
(* Salvage scan: walk frames forward, keep the longest valid prefix.    *)
(* ------------------------------------------------------------------ *)

type scan_result = {
  sc_entries : (int * L.entry array) list;  (* pages, in file order *)
  sc_pages : int;
  sc_nentries : int;
  sc_ckpts : L.ckpt list;  (* checkpoint frames, in file order *)
  sc_index : footer option;  (* the footer, when intact *)
  sc_damage : damage list;
}

let scan raw =
  let len = String.length raw in
  let pages = ref [] in
  let npages = ref 0 in
  let nentries = ref 0 in
  let ckpts = ref [] in
  let damage = ref [] in
  let findex = ref None in
  let add off reason =
    damage := { dmg_offset = off; dmg_reason = reason } :: !damage
  in
  let pos = ref (String.length magic) in
  let stop = ref false in
  while (not !stop) && !pos < len do
    let off = !pos in
    match parse_frame raw off with
    | Ok (F_page { fpid; fentries; fnext }) ->
      incr npages;
      nentries := !nentries + Array.length fentries;
      pages := (fpid, fentries) :: !pages;
      pos := fnext
    | Ok (F_ckpt { fck; fnext }) ->
      ckpts := fck :: !ckpts;
      pos := fnext
    | Ok (F_footer { fpos; flen; fnext }) ->
      (match parse_footer raw ~pos:fpos ~limit:(fpos + flen) with
      | ft -> findex := Some ft
      | exception Varint.Corrupt m -> add off ("footer: " ^ m));
      (if len - fnext <> trailer_len then
         add fnext
           (Printf.sprintf
              "expected the 16-byte trailer after the footer, found %d \
               byte(s)"
              (len - fnext))
       else if not (String.equal (String.sub raw (len - 8) 8) trailer_magic)
       then add (len - 8) "trailer magic missing"
       else if get_u64_le raw fnext <> off then
         add fnext
           (Printf.sprintf "trailer points at byte %d, the footer is at %d"
              (get_u64_le raw fnext) off));
      stop := true
    | Error reason ->
      add off reason;
      stop := true
  done;
  if not !stop then add len "file ends without a footer frame";
  {
    sc_entries = List.rev !pages;
    sc_pages = !npages;
    sc_nentries = !nentries;
    sc_ckpts = List.rev !ckpts;
    sc_index = !findex;
    sc_damage = List.rev !damage;
  }

(* ------------------------------------------------------------------ *)
(* Reader.                                                              *)
(* ------------------------------------------------------------------ *)

(* One shard of the page cache: an assoc-list LRU under its own lock,
   so domains decoding different pages rarely contend. Everything else
   in an indexed reader ([ix_raw], the index arrays) is immutable after
   [open_file], hence safe to share without locks. Each cached page
   carries its byte estimate so the daemon's memory budget (DESIGN
   §17) can account and reclaim it. *)
type page_shard = {
  ps_lock : Mutex.t;
  mutable ps_cache : ((int * int) * (L.entry array * int)) list;
      (* (pid, page) -> (decoded entries, byte estimate), recent first *)
}

type indexed = {
  ix_path : string;
  ix_raw : string;
  ix_index : pid_index array;
  ix_tier : L.tier;
  ix_ckpts : L.ckpt array;
      (* decoded eagerly at open: checkpoints are rare and small, and a
         corrupt checkpoint frame should demote the reader to salvage
         just like a corrupt footer would *)
  ix_shards : page_shard array;
  ix_budget : Resil.Budget.t option;
      (* daemon-wide byte budget the cached pages are charged to *)
  ix_ivs : L.interval array option array;  (* materialised lazily per pid *)
}

type mem = {
  bm_log : L.t;
  bm_damage : damage list;
  bm_ivs : L.interval array option array;  (* lazy per pid *)
}

type backing = B_indexed of indexed | B_mem of mem

type reader = {
  r_path : string;
  r_version : int;
  r_bytes : int;
  r_backing : backing;
}

let page_shards = 8

let page_cache_cap = 16 (* per shard *)

(* Demand-paging counters (no-ops until [Obs.enable]): cache hits,
   faults (page decoded from the raw segment), and LRU evictions —
   as totals plus a per-shard breakdown, so a skewed (pid, page)
   distribution overloading one shard is visible in a profile. *)
let c_page_hits = Obs.counter "store.segment.page_hits"

let c_page_faults = Obs.counter "store.segment.page_faults"

let c_evictions = Obs.counter "store.segment.lru_evictions"

let c_shard_faults =
  Array.init page_shards (fun i ->
      Obs.counter (Printf.sprintf "store.segment.shard%d.page_faults" i))

let c_shard_evictions =
  Array.init page_shards (fun i ->
      Obs.counter (Printf.sprintf "store.segment.shard%d.lru_evictions" i))

let fresh_shards () =
  Array.init page_shards (fun _ -> { ps_lock = Mutex.create (); ps_cache = [] })

let read_file path =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error m ->
    raise (Trace.Log_io.Unreadable { path; reason = m })

(* Returns the format version; raises on anything we cannot read. *)
let check_magic path raw =
  if String.length raw < 8 then
    unreadable path "file shorter than the 8-byte magic"
  else
    let hdr = String.sub raw 0 8 in
    if String.equal hdr magic then 2
    else if String.equal hdr Trace.Log_io.magic then 1
    else if String.equal (String.sub hdr 0 6) "PPDLOG" then
      unreadable path
        "unsupported log format version '%c' (this build reads v1 and v2)"
        hdr.[6]
    else unreadable path "not a PPD log file (bad magic)"

let mem_backing ?(dmg = []) log =
  B_mem
    { bm_log = log; bm_damage = dmg; bm_ivs = Array.make log.L.nprocs None }

(* A coarse in-memory cost for one decoded page: boxed entries on an
   array plus the cache slot overhead. *)
let page_cost entries = (Array.length entries * 64) + 128

let salvage raw =
  let sc = scan raw in
  let nprocs =
    List.fold_left
      (fun a (pid, _) -> max a (pid + 1))
      (match sc.sc_index with Some ft -> Array.length ft.ft_index | None -> 0)
      sc.sc_entries
  in
  let per = Array.init nprocs (fun _ -> ref []) in
  List.iter (fun (pid, page) -> per.(pid) := page :: !(per.(pid))) sc.sc_entries;
  let entries =
    Array.map (fun c -> Array.concat (List.rev !c)) per
  in
  let stops =
    match sc.sc_index with
    | Some ft when Array.length ft.ft_index = nprocs ->
      Array.map (fun px -> px.px_stop) ft.ft_index
    | _ ->
      Array.map
        (fun es ->
          Array.fold_left (fun a e -> max a (L.entry_seq_at e + 1)) 0 es)
        entries
  in
  (* The tier lives in the footer; when the footer is gone, the safest
     reading of the remains is content (an order log without its tier
     metadata cannot be reconstructed anyway — the prefix degrades to
     whatever entries survived). *)
  let tier =
    match sc.sc_index with Some ft -> ft.ft_tier | None -> L.T_content
  in
  mem_backing ~dmg:sc.sc_damage
    {
      L.nprocs;
      entries;
      stops;
      tier;
      ckpts = Array.of_list sc.sc_ckpts;
      base = Array.make nprocs 0;
    }

(* Fast path: intact trailer -> footer -> index; no page is decoded. *)
let indexed_backing ?budget path raw =
  let len = String.length raw in
  if len < String.length magic + trailer_len then None
  else if not (String.equal (String.sub raw (len - 8) 8) trailer_magic) then
    None
  else
    let footer_pos = get_u64_le raw (len - trailer_len) in
    if footer_pos < String.length magic || footer_pos >= len - trailer_len
    then None
    else
      match parse_frame raw footer_pos with
      | Ok (F_footer { fpos; flen; fnext }) when fnext = len - trailer_len
        -> (
        match parse_footer raw ~pos:fpos ~limit:(fpos + flen) with
        | ft -> (
          let decode_ckpt (off, _step) =
            match parse_frame raw off with
            | Ok (F_ckpt { fck; _ }) -> fck
            | Ok _ | Error _ -> raise Exit
          in
          match Array.map decode_ckpt ft.ft_ckpts with
          | ckpts ->
            Some
              (B_indexed
                 {
                   ix_path = path;
                   ix_raw = raw;
                   ix_index = ft.ft_index;
                   ix_tier = ft.ft_tier;
                   ix_ckpts = ckpts;
                   ix_shards = fresh_shards ();
                   ix_budget = budget;
                   ix_ivs = Array.make (Array.length ft.ft_index) None;
                 })
          | exception Exit -> None)
        | exception Varint.Corrupt _ -> None)
      | Ok _ | Error _ -> None

let open_file ?budget path =
  let raw = read_file path in
  match check_magic path raw with
  | 1 ->
    {
      r_path = path;
      r_version = 1;
      r_bytes = String.length raw;
      r_backing = mem_backing (Trace.Log_io.load path);
    }
  | _ ->
    let backing =
      match indexed_backing ?budget path raw with
      | Some b -> b
      | None -> salvage raw
    in
    {
      r_path = path;
      r_version = 2;
      r_bytes = String.length raw;
      r_backing = backing;
    }

let version r = r.r_version

let file_bytes r = r.r_bytes

let is_indexed r =
  match r.r_backing with B_indexed _ -> true | B_mem _ -> false

let damage r =
  match r.r_backing with B_indexed _ -> [] | B_mem m -> m.bm_damage

let tier r =
  match r.r_backing with
  | B_indexed ix -> ix.ix_tier
  | B_mem m -> m.bm_log.L.tier

let ckpts r =
  match r.r_backing with
  | B_indexed ix -> ix.ix_ckpts
  | B_mem m -> m.bm_log.L.ckpts

let nprocs r =
  match r.r_backing with
  | B_indexed ix -> Array.length ix.ix_index
  | B_mem m -> m.bm_log.L.nprocs

let stops r =
  match r.r_backing with
  | B_indexed ix -> Array.map (fun px -> px.px_stop) ix.ix_index
  | B_mem m -> Array.copy m.bm_log.L.stops

let pid_entry_count r ~pid =
  match r.r_backing with
  | B_indexed ix -> ix.ix_index.(pid).px_count
  | B_mem m -> Array.length m.bm_log.L.entries.(pid)

let entry_count r =
  match r.r_backing with
  | B_indexed ix -> Array.fold_left (fun a px -> a + px.px_count) 0 ix.ix_index
  | B_mem m -> L.entry_count m.bm_log

(* The page holding entry [idx]: greatest p with px_first.(p) <= idx. *)
let find_page px ~idx =
  let lo = ref 0 and hi = ref (Array.length px.px_first - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if px.px_first.(mid) <= idx then lo := mid else hi := mid - 1
  done;
  !lo

(* Decode one page through the sharded LRU cache. The frame is parsed
   outside the shard lock, so concurrent demand-paging domains only
   serialize on the (cheap) cache lookup and insert; two domains racing
   on the same cold page may both decode it, which is harmless — pages
   are immutable. *)
let decode_page ix ~pid ~page =
  (match Fault.fire f_read with
  | None -> ()
  | Some _ ->
    unreadable ix.ix_path "injected read fault at page %d of process %d" page
      pid);
  let key = (pid, page) in
  let shard_i = (pid + page) mod page_shards in
  let shard = ix.ix_shards.(shard_i) in
  Mutex.lock shard.ps_lock;
  let hit = List.assoc_opt key shard.ps_cache in
  (match hit with
  | Some cached ->
    shard.ps_cache <- (key, cached) :: List.remove_assoc key shard.ps_cache
  | None -> ());
  Mutex.unlock shard.ps_lock;
  match hit with
  | Some (entries, _) ->
    Obs.incr c_page_hits;
    entries
  | None -> (
    Obs.incr c_page_faults;
    Obs.incr c_shard_faults.(shard_i);
    let px = ix.ix_index.(pid) in
    let off, count = px.px_pages.(page) in
    match parse_frame ix.ix_raw off with
    | Ok (F_page { fpid; fentries; _ })
      when fpid = pid && Array.length fentries = count ->
      let cost = page_cost fentries in
      Mutex.lock shard.ps_lock;
      let charged = ref 0 in
      (if not (List.mem_assoc key shard.ps_cache) then begin
         charged := cost;
         (if List.length shard.ps_cache >= page_cache_cap then begin
            Obs.incr c_evictions;
            Obs.incr c_shard_evictions.(shard_i);
            (* the LRU tail falls off: return its bytes *)
            match List.rev shard.ps_cache with
            | (_, (_, b)) :: _ -> charged := !charged - b
            | [] -> ()
          end);
         shard.ps_cache <-
           (key, (fentries, cost))
           :: (if List.length shard.ps_cache >= page_cache_cap then
                 List.filteri
                   (fun i _ -> i < page_cache_cap - 1)
                   shard.ps_cache
               else shard.ps_cache)
       end);
      Mutex.unlock shard.ps_lock;
      (* budget work strictly outside the shard lock: the rebalance
         walk re-enters these shards through the registered reclaimer *)
      (match ix.ix_budget with
      | Some b when !charged <> 0 ->
        Resil.Budget.charge b !charged;
        Resil.Budget.rebalance b
      | _ -> ());
      fentries
    | Ok (F_page { fpid; fentries; _ }) ->
      unreadable ix.ix_path
        "page at byte %d holds %d entries of process %d, the index says %d \
         of process %d"
        off (Array.length fentries) fpid count pid
    | Ok (F_footer _) ->
      unreadable ix.ix_path "index points at the footer (byte %d)" off
    | Ok (F_ckpt _) ->
      unreadable ix.ix_path "index points at a checkpoint frame (byte %d)" off
    | Error reason -> unreadable ix.ix_path "page at byte %d: %s" off reason)

(* Evict cached pages (LRU tails first, round-robin across shards)
   until [want] accounted bytes are freed or every shard is empty.
   Returns the bytes freed; releases them from the attached budget
   itself (the [Resil.Budget] reclaimer contract). Pages are the
   cheapest thing in the daemon to reconstruct — one frame re-parse —
   so the daemon registers this at the lowest reclaim weight. *)
let reclaim_cache r want =
  match r.r_backing with
  | B_mem _ -> 0
  | B_indexed ix ->
    if want <= 0 then 0
    else begin
      let freed = ref 0 in
      let progress = ref true in
      while !freed < want && !progress do
        progress := false;
        Array.iteri
          (fun shard_i shard ->
            if !freed < want then begin
              Mutex.lock shard.ps_lock;
              (match List.rev shard.ps_cache with
              | (k, (_, b)) :: _ ->
                shard.ps_cache <- List.remove_assoc k shard.ps_cache;
                freed := !freed + b;
                progress := true;
                Obs.incr c_evictions;
                Obs.incr c_shard_evictions.(shard_i)
              | [] -> ());
              Mutex.unlock shard.ps_lock
            end)
          ix.ix_shards
      done;
      (match ix.ix_budget with
      | Some b -> Resil.Budget.release b !freed
      | None -> ());
      !freed
    end

let clear_cache r = ignore (reclaim_cache r max_int)

let cache_bytes r =
  match r.r_backing with
  | B_mem _ -> 0
  | B_indexed ix ->
    Array.fold_left
      (fun acc shard ->
        Mutex.lock shard.ps_lock;
        let n =
          List.fold_left (fun a (_, (_, b)) -> a + b) 0 shard.ps_cache
        in
        Mutex.unlock shard.ps_lock;
        acc + n)
      0 ix.ix_shards

let intervals r ~stmt_fid ~pid =
  match r.r_backing with
  | B_indexed ix -> (
    match ix.ix_ivs.(pid) with
    | Some ivs -> ivs
    | None ->
      let ivs = materialize_intervals ix.ix_index.(pid) ~stmt_fid ~pid in
      ix.ix_ivs.(pid) <- Some ivs;
      ivs)
  | B_mem m -> (
    match m.bm_ivs.(pid) with
    | Some ivs -> ivs
    | None ->
      let ivs = L.intervals ~stmt_fid m.bm_log ~pid in
      m.bm_ivs.(pid) <- Some ivs;
      ivs)

let interval_step r (iv : L.interval) =
  match r.r_backing with
  | B_indexed ix -> ix.ix_index.(iv.L.iv_pid).px_iv_steps.(iv.L.iv_id)
  | B_mem m -> (
    match m.bm_log.L.entries.(iv.L.iv_pid).(iv.L.iv_prelog) with
    | L.Prelog { step_at; _ } -> step_at
    | _ -> 0)

let snapshot_step r ~pid ~reader_seq =
  match r.r_backing with
  | B_indexed ix ->
    let px = ix.ix_index.(pid) in
    let acc = ref 0 in
    Array.iteri
      (fun i seq ->
        if seq <= reader_seq then acc := max !acc px.px_iv_steps.(i))
      px.px_seq_start;
    Array.iter
      (fun (seq, step) -> if seq <= reader_seq then acc := max !acc step)
      px.px_snaps;
    !acc
  | B_mem m ->
    Array.fold_left
      (fun acc e ->
        match e with
        | L.Prelog { seq_at; step_at; _ } | L.Sync_prelog { seq_at; step_at; _ }
          when seq_at <= reader_seq ->
          max acc step_at
        | _ -> acc)
      0 m.bm_log.L.entries.(pid)

let entry r ~pid ~idx =
  match r.r_backing with
  | B_indexed ix ->
    let px = ix.ix_index.(pid) in
    let page = find_page px ~idx in
    (decode_page ix ~pid ~page).(idx - px.px_first.(page))
  | B_mem m -> m.bm_log.L.entries.(pid).(idx)

let window r ~pid ~lo ~hi =
  match r.r_backing with
  | B_mem m -> m.bm_log
  | B_indexed ix ->
    let px = ix.ix_index.(pid) in
    let count = px.px_count in
    let base, entries =
      if count > 0 && lo < count && hi >= 0 then
        let first = find_page px ~idx:(max 0 lo) in
        let last = find_page px ~idx:(min hi (count - 1)) in
        let pages =
          List.init (last - first + 1) (fun k ->
              decode_page ix ~pid ~page:(first + k))
        in
        (* pages are immutable, so a one-page window is the cached page *)
        ( px.px_first.(first),
          match pages with [ page ] -> page | _ -> Array.concat pages )
      else (0, [||])
    in
    let nprocs = Array.length ix.ix_index in
    {
      L.nprocs;
      entries = Array.init nprocs (fun p -> if p = pid then entries else [||]);
      stops = Array.map (fun px -> px.px_stop) ix.ix_index;
      tier = ix.ix_tier;
      ckpts = ix.ix_ckpts;
      base = Array.init nprocs (fun p -> if p = pid then base else 0);
    }

let to_log r =
  match r.r_backing with
  | B_mem m -> m.bm_log
  | B_indexed ix ->
    {
      L.nprocs = Array.length ix.ix_index;
      entries =
        Array.mapi
          (fun pid px ->
            Array.concat
              (List.init (Array.length px.px_pages) (fun page ->
                   decode_page ix ~pid ~page)))
          ix.ix_index;
      stops = Array.map (fun px -> px.px_stop) ix.ix_index;
      tier = ix.ix_tier;
      ckpts = ix.ix_ckpts;
      base = Array.make (Array.length ix.ix_index) 0;
    }

let load path =
  let r = open_file path in
  match to_log r with
  | log -> log
  | exception Trace.Log_io.Unreadable _ when is_indexed r ->
    (* the index survived but some page did not: fall back to the
       forward scan and keep the longest valid prefix *)
    let r = { r with r_backing = salvage (read_file path) } in
    to_log r

(* ------------------------------------------------------------------ *)
(* Verification.                                                        *)
(* ------------------------------------------------------------------ *)

type report = {
  vr_version : int;
  vr_bytes : int;
  vr_pages : int;
  vr_records : int;
  vr_indexed : bool;
  vr_damage : damage list;
}

let verify path =
  let raw = read_file path in
  match check_magic path raw with
  | 1 -> (
    match Trace.Log_io.load path with
    | log ->
      {
        vr_version = 1;
        vr_bytes = String.length raw;
        vr_pages = 0;
        vr_records = L.entry_count log;
        vr_indexed = false;
        vr_damage = [];
      }
    | exception Trace.Log_io.Unreadable { reason; _ } ->
      {
        vr_version = 1;
        vr_bytes = String.length raw;
        vr_pages = 0;
        vr_records = 0;
        vr_indexed = false;
        vr_damage =
          [
            {
              dmg_offset = String.length Trace.Log_io.magic;
              dmg_reason = reason;
            };
          ];
      })
  | _ ->
    let sc = scan raw in
    {
      vr_version = 2;
      vr_bytes = String.length raw;
      vr_pages = sc.sc_pages;
      vr_records = sc.sc_nentries;
      vr_indexed = sc.sc_index <> None;
      vr_damage = sc.sc_damage;
    }

(* ------------------------------------------------------------------ *)
(* fsck: exhaustive per-page damage report.                             *)
(* ------------------------------------------------------------------ *)

(* [verify] reuses the salvage scan, which stops at the first bad
   frame; fsck instead checks *every* page the footer index knows
   about, so a single flipped bit mid-file still yields a complete
   per-page report with the offsets of all damage, plus a summary of
   what a salvage would recover. *)

type fsck_page = {
  fp_pid : int;
  fp_page : int;  (* ordinal within the process *)
  fp_offset : int;
  fp_count : int;  (* entries the index (or frame) claims *)
  fp_error : string option;
}

type fsck_report = {
  fk_version : int;
  fk_bytes : int;
  fk_indexed : bool;
  fk_tier : string;  (* "content" or "order" *)
  fk_ckpts : int;  (* intact checkpoint frames *)
  fk_pages : fsck_page list;
  fk_damage : damage list;
  fk_procs : int;
  fk_records : int;  (* records in intact pages *)
  fk_intervals : int;  (* intervals known (index) or salvaged (scan) *)
  fk_clean : bool;
}

let fsck path =
  let raw = read_file path in
  let bytes = String.length raw in
  match check_magic path raw with
  | 1 -> (
    match Trace.Log_io.load path with
    | log ->
      let intervals = ref 0 in
      for pid = 0 to log.L.nprocs - 1 do
        intervals := !intervals + Array.length (L.intervals log ~pid)
      done;
      {
        fk_version = 1;
        fk_bytes = bytes;
        fk_indexed = false;
        fk_tier = L.tier_name log.L.tier;
        fk_ckpts = Array.length log.L.ckpts;
        fk_pages = [];
        fk_damage = [];
        fk_procs = log.L.nprocs;
        fk_records = L.entry_count log;
        fk_intervals = !intervals;
        fk_clean = true;
      }
    | exception Trace.Log_io.Unreadable { reason; _ } ->
      {
        fk_version = 1;
        fk_bytes = bytes;
        fk_indexed = false;
        fk_tier = "content";
        fk_ckpts = 0;
        fk_pages = [];
        fk_damage =
          [
            {
              dmg_offset = String.length Trace.Log_io.magic;
              dmg_reason = reason;
            };
          ];
        fk_procs = 0;
        fk_records = 0;
        fk_intervals = 0;
        fk_clean = false;
      })
  | _ -> (
    match indexed_backing path raw with
    | Some (B_indexed ix) ->
      (* index intact: check each indexed page individually *)
      let pages = ref [] in
      let bad = ref 0 in
      let good_records = ref 0 in
      Array.iteri
        (fun pid px ->
          Array.iteri
            (fun page (off, count) ->
              let error =
                match parse_frame raw off with
                | Ok (F_page { fpid; fentries; _ })
                  when fpid = pid && Array.length fentries = count ->
                  None
                | Ok (F_page { fpid; fentries; _ }) ->
                  Some
                    (Printf.sprintf
                       "holds %d entries of process %d, the index says %d of \
                        process %d"
                       (Array.length fentries) fpid count pid)
                | Ok (F_footer _) -> Some "index points at the footer"
                | Ok (F_ckpt _) -> Some "index points at a checkpoint frame"
                | Error reason -> Some reason
              in
              (match error with
              | None -> good_records := !good_records + count
              | Some _ -> incr bad);
              pages :=
                {
                  fp_pid = pid;
                  fp_page = page;
                  fp_offset = off;
                  fp_count = count;
                  fp_error = error;
                }
                :: !pages)
            px.px_pages)
        ix.ix_index;
      {
        fk_version = 2;
        fk_bytes = bytes;
        fk_indexed = true;
        fk_tier = L.tier_name ix.ix_tier;
        fk_ckpts = Array.length ix.ix_ckpts;
        fk_pages = List.rev !pages;
        fk_damage = [];
        fk_procs = Array.length ix.ix_index;
        fk_records = !good_records;
        fk_intervals =
          Array.fold_left
            (fun a px -> a + Array.length px.px_blocks)
            0 ix.ix_index;
        fk_clean = !bad = 0;
      }
    | Some (B_mem _) | None ->
      (* no usable index: the valid prefix is all we can vouch for *)
      let sc = scan raw in
      let pages = ref [] in
      let per_pid = Hashtbl.create 8 in
      let pos = ref (String.length magic) in
      let stop = ref false in
      while (not !stop) && !pos < bytes do
        match parse_frame raw !pos with
        | Ok (F_page { fpid; fentries; fnext }) ->
          let ord =
            match Hashtbl.find_opt per_pid fpid with Some n -> n | None -> 0
          in
          Hashtbl.replace per_pid fpid (ord + 1);
          pages :=
            {
              fp_pid = fpid;
              fp_page = ord;
              fp_offset = !pos;
              fp_count = Array.length fentries;
              fp_error = None;
            }
            :: !pages;
          pos := fnext
        | Ok (F_ckpt { fnext; _ }) -> pos := fnext
        | Ok (F_footer _) | Error _ -> stop := true
      done;
      let log =
        match salvage raw with
        | B_mem m -> m.bm_log
        | B_indexed _ -> assert false
      in
      let intervals = ref 0 in
      for pid = 0 to log.L.nprocs - 1 do
        intervals := !intervals + Array.length (L.intervals log ~pid)
      done;
      {
        fk_version = 2;
        fk_bytes = bytes;
        fk_indexed = false;
        fk_tier = L.tier_name log.L.tier;
        fk_ckpts = List.length sc.sc_ckpts;
        fk_pages = List.rev !pages;
        fk_damage = sc.sc_damage;
        fk_procs = log.L.nprocs;
        fk_records = sc.sc_nentries;
        fk_intervals = !intervals;
        fk_clean = sc.sc_damage = [];
      })

(* ------------------------------------------------------------------ *)
(* Repair: rewrite everything salvageable into a fresh verified log.   *)
(* ------------------------------------------------------------------ *)

(* fsck *reports* damage; repair acts on the same information. For an
   indexed file every process keeps its clean page prefix: pages after
   the first damaged page of that process are dropped even when intact,
   because entry indices shift and the rewritten interval table must
   keep prelog/postlog nesting coherent (a kept Postlog whose Prelog
   fell in the damaged page would corrupt the rebuilt index). Without a
   usable index the salvage scan's valid prefix is all there is. The
   kept entries are re-encoded through the ordinary writer, so the
   output is a fully verified v2 segment with a fresh footer. *)

type repair_drop = {
  rd_pid : int;  (* -1 when the page structure is unknown (scan path) *)
  rd_page : int;  (* ordinal within the process; -1 on the scan path *)
  rd_offset : int;
  rd_records : int;  (* entries lost with it; 0 when unknowable *)
  rd_reason : string;
}

type repair_report = {
  rp_version : int;
  rp_tier : string;
  rp_kept_pages : int;
  rp_kept_records : int;
  rp_kept_ckpts : int;
  rp_dropped : repair_drop list;  (* empty iff nothing was lost *)
  rp_out_bytes : int;
}

let repair path ~out =
  let raw = read_file path in
  match check_magic path raw with
  | 1 ->
    (* v1 is all-or-nothing Marshal: loadable means nothing to drop *)
    let log = Trace.Log_io.load path in
    save out log;
    {
      rp_version = 1;
      rp_tier = L.tier_name log.L.tier;
      rp_kept_pages = 0;
      rp_kept_records = L.entry_count log;
      rp_kept_ckpts = Array.length log.L.ckpts;
      rp_dropped = [];
      rp_out_bytes = (read_file out |> String.length);
    }
  | _ ->
    let finish (log : L.t) ~kept_pages ~dropped =
      save out log;
      {
        rp_version = 2;
        rp_tier = L.tier_name log.L.tier;
        rp_kept_pages = kept_pages;
        rp_kept_records = L.entry_count log;
        rp_kept_ckpts = Array.length log.L.ckpts;
        rp_dropped = List.rev dropped;
        rp_out_bytes = (read_file out |> String.length);
      }
    in
    (match indexed_backing path raw with
    | Some (B_indexed ix) ->
      let dropped = ref [] in
      let kept_pages = ref 0 in
      let entries =
        Array.mapi
          (fun pid px ->
            let kept = ref [] in
            let broken = ref None in
            Array.iteri
              (fun page (off, count) ->
                match !broken with
                | Some first_bad ->
                  dropped :=
                    {
                      rd_pid = pid;
                      rd_page = page;
                      rd_offset = off;
                      rd_records = count;
                      rd_reason =
                        Printf.sprintf
                          "follows damaged page %d of this process" first_bad;
                    }
                    :: !dropped
                | None -> (
                  match parse_frame raw off with
                  | Ok (F_page { fpid; fentries; _ })
                    when fpid = pid && Array.length fentries = count ->
                    incr kept_pages;
                    kept := fentries :: !kept
                  | Ok (F_page { fpid; fentries; _ }) ->
                    broken := Some page;
                    dropped :=
                      {
                        rd_pid = pid;
                        rd_page = page;
                        rd_offset = off;
                        rd_records = count;
                        rd_reason =
                          Printf.sprintf
                            "holds %d entries of process %d, the index says \
                             %d of process %d"
                            (Array.length fentries) fpid count pid;
                      }
                      :: !dropped
                  | Ok (F_footer _ | F_ckpt _) ->
                    broken := Some page;
                    dropped :=
                      {
                        rd_pid = pid;
                        rd_page = page;
                        rd_offset = off;
                        rd_records = count;
                        rd_reason = "index points at a non-page frame";
                      }
                      :: !dropped
                  | Error reason ->
                    broken := Some page;
                    dropped :=
                      {
                        rd_pid = pid;
                        rd_page = page;
                        rd_offset = off;
                        rd_records = count;
                        rd_reason = reason;
                      }
                      :: !dropped))
              px.px_pages;
            (Array.concat (List.rev !kept), !broken = None))
          ix.ix_index
      in
      let stops =
        Array.mapi
          (fun pid (es, intact) ->
            (* a truncated process recomputes its stop from what
               survived; an intact one keeps the recorded stop *)
            if intact then ix.ix_index.(pid).px_stop
            else Array.fold_left (fun a e -> max a (L.entry_seq_at e + 1)) 0 es)
          entries
      in
      let log =
        {
          L.nprocs = Array.length ix.ix_index;
          entries = Array.map fst entries;
          stops;
          tier = ix.ix_tier;
          ckpts = ix.ix_ckpts;
          base = Array.make (Array.length ix.ix_index) 0;
        }
      in
      finish log ~kept_pages:!kept_pages ~dropped:!dropped
    | Some (B_mem _) | None ->
      let sc = scan raw in
      let backing = salvage raw in
      let log =
        match backing with B_mem m -> m.bm_log | B_indexed _ -> assert false
      in
      let dropped =
        List.map
          (fun d ->
            {
              rd_pid = -1;
              rd_page = -1;
              rd_offset = d.dmg_offset;
              rd_records = 0;
              rd_reason = d.dmg_reason;
            })
          sc.sc_damage
      in
      finish log ~kept_pages:sc.sc_pages ~dropped:(List.rev dropped))
