(** The durable segmented log store — the one on-disk log format (v2),
    and the only module that knows it.

    A segment file is a stream of CRC-framed binary pages that the
    logger appends {e as the execution runs} (one flush per ~4 KiB of
    payload or per closing top-level e-block), so a crash loses at most
    the open tail, never the whole log.

    Layout (DESIGN.md §9, §16):
    {v
    "PPDLOG2\n"                                   8-byte magic
    repeat: 0x01 · varint len · payload · crc32   page frames
            payload = varint pid · varint count · count entries
      or:   0x03 · varint len · ckpt    · crc32   checkpoint frames
    once:   0x02 · varint len · footer  · crc32   footer frame
    trailer: u64-le footer offset · "PPDEND2\n"   last 16 bytes
    v}

    The footer starts with the logging tier (content, or order with its
    reconstruction metadata) and the checkpoint directory (file offset
    and step of every checkpoint frame), then the interval index: per
    process it stores the stop sequence number, the page table (offset
    and entry count of every page frame), and the delta-coded interval
    table — block, prelog and postlog positions, reader-sequence span,
    parent link, and the prelog's [step_at] (which doubles as the
    restore-snapshot coordinate) — plus the sync-unit prelog snapshots.
    That is everything the debugging-phase controller needs to answer
    queries without decoding a single page, until an interval is
    actually emulated.

    Reading degrades gracefully: an intact trailer gives O(1) seeks to
    the pages covering any interval; a truncated or damaged file falls
    back to a forward scan that salvages the longest valid page prefix
    and reports what was lost. *)

exception Unreadable of { path : string; reason : string }
(** The file is not a readable log: missing, foreign, of another format
    version, or (for a single page read) damaged. *)

val format_version : int
(** [2], the format this build reads and writes. *)

val magic : string
(** ["PPDLOG2\n"]. Any other ["PPDLOG<x>"] magic names another format
    version and is {!Unreadable}. *)

val trailer_magic : string
(** ["PPDEND2\n"], the final 8 bytes of a complete segment. *)

type damage = {
  dmg_offset : int;  (** byte offset where the problem was found *)
  dmg_reason : string;
}

(** Streaming segment writer: plug {!Writer.sink} into
    {!Trace.Logger.create} and pages hit the disk as the traced
    program runs. *)
module Writer : sig
  type t

  val to_file : ?tier:Trace.Log.tier -> string -> t
  (** Open a segment at the path and write the magic. [tier] (default
      content) is recorded in the footer. An existing regular file at
      the path is removed and created afresh; a symlink is written
      through to its target. *)

  val to_buffer : ?tier:Trace.Log.tier -> Buffer.t -> t
  (** Same, into a buffer — used to measure encoded sizes. *)

  val append_ckpt : t -> Trace.Log.ckpt -> unit
  (** Write a checkpoint as its own frame and index its offset in the
      footer's checkpoint directory. *)

  val sink : t -> Trace.Logger.sink
  (** The logger-facing streaming interface; its [sink_close] writes
      the footer and trailer. *)

  val finalize : t -> stops:int array -> unit
  (** Flush open pages, then write the footer and trailer (idempotent;
      [sink_close] calls this). The footer covers every process
      [stops] has an entry for, including trailing ones that appended
      nothing. @raise Invalid_argument with {!Trace.Log.intervals}'s
      message if a process's prelogs and postlogs do not nest. *)

  val close : t -> unit
  (** Flush and close. If the footer was never written (the run died
      before [finish]), writes it with best-effort stop counts first.
      Idempotent. *)

  val bytes_written : t -> int

  val failure : t -> string option
  (** [Some reason] once an injected fault (lib/fault) has killed the
      stream: the writer silently swallows everything after the durable
      prefix, like a process that was kill -9'd mid-log. *)
end

type reader
(** An open segment. Indexed readers keep the raw bytes plus the footer
    tables and decode pages lazily, CRC-checked per frame, through a
    small LRU of decoded pages; salvaged readers hold the recovered
    prefix in memory. The page LRU is sharded with a lock per shard, so
    several domains may demand-page through one reader concurrently
    (the index tables and raw bytes are immutable after open). *)

val open_file : ?budget:Resil.Budget.t -> string -> reader
(** Open a log file: indexed when the trailer and footer are intact,
    salvaged otherwise. With [budget] (DESIGN §17), every page the LRU
    caches is charged by a byte estimate and a rebalance runs after
    each insert; the daemon registers {!reclaim_cache} as the
    corresponding reclaimer. @raise Unreadable on a foreign or hopeless
    file. *)

val of_log : Trace.Log.t -> reader
(** A reader over a log already in memory (no file behind it:
    {!file_bytes} 0). Reads never fault and never page; {!intervals}
    are memoised per process like an indexed reader's. *)

val reclaim_cache : reader -> int -> int
(** [reclaim_cache r want] evicts cached pages (LRU tails first,
    round-robin across the shards) until at least [want] accounted
    bytes are freed or the cache is empty. Returns the bytes freed and
    releases them from the attached budget itself. Always safe: an
    evicted page is re-parsed from the raw segment on the next touch.
    [0] for salvaged readers (they hold the log, not a cache). *)

val clear_cache : reader -> unit
(** Evict every cached page (releasing the budget charge). *)

val cache_bytes : reader -> int
(** Accounted byte estimate of the pages cached right now. *)

val file_bytes : reader -> int
(** On-disk size of the file that was opened. *)

val is_indexed : reader -> bool
(** True when the footer index is driving reads (no salvage needed). *)

val damage : reader -> damage list
(** What the salvage scan found; [[]] for an intact file. *)

val tier : reader -> Trace.Log.tier
(** The logging tier recorded in the footer; [T_content] for salvaged
    files whose footer was lost. *)

val ckpts : reader -> Trace.Log.ckpt array
(** The decoded checkpoints, in step order. *)

val nprocs : reader -> int

val stops : reader -> int array

val entry_count : reader -> int

val pid_entry_count : reader -> pid:int -> int

val intervals :
  reader -> stmt_fid:(int -> int) -> pid:int -> Trace.Log.interval array
(** The process's interval tree — materialised from the footer table
    (no page decoding) when indexed, recomputed from the salvaged
    entries otherwise. [stmt_fid] supplies the fid of loop blocks,
    which the footer does not store. *)

val interval_step : reader -> Trace.Log.interval -> int
(** The interval's prelog [step_at], from the index when possible. *)

val snapshot_step : reader -> pid:int -> reader_seq:int -> int
(** The latest prelog/sync-prelog [step_at] at or before [reader_seq]
    (the controller's snapshot-moment query), index-only when
    possible. *)

val entry : reader -> pid:int -> idx:int -> Trace.Log.entry
(** Decode the page holding one entry and return it. @raise Unreadable
    if the page is damaged. *)

val window : reader -> pid:int -> lo:int -> hi:int -> Trace.Log.t
(** A demand-paged view: a log whose [pid] entry array holds just the
    pages covering entries [lo..hi], with [base.(pid)] the whole-log
    index of their first entry (other processes are empty); its
    [nprocs]/[stops] are real. The emulator indexes relative to
    [base], so its cost follows the pages an interval touches, not the
    process's log length. A reader without an index returns its whole
    in-memory log. Decoded pages are cached in a sharded,
    lock-protected LRU keyed by [(pid, page)]; safe to call from pool
    domains.
    @raise Unreadable if a page in range is damaged. *)

val to_log : reader -> Trace.Log.t
(** Decode everything. *)

val save : string -> Trace.Log.t -> unit
(** Write an in-memory log as a complete segment. *)

val load : string -> Trace.Log.t
(** Load a log file whole; a damaged file yields the salvaged prefix.
    @raise Unreadable when nothing can be read. *)

val encoded_size : Trace.Log.t -> int
(** Exact on-disk size in bytes, without touching the filesystem. *)

type report = {
  vr_bytes : int;
  vr_pages : int;  (** intact page frames *)
  vr_records : int;  (** intact entry records inside those pages *)
  vr_indexed : bool;  (** the footer index is usable *)
  vr_damage : damage list;  (** empty iff the file is clean *)
}

val verify : string -> report
(** Walk every frame of the file (CRC and structural checks, trailer
    and footer validation) and report all damage found. @raise
    Unreadable only when the magic itself is not {!magic}. *)

type fsck_page = {
  fp_pid : int;
  fp_page : int;  (** page ordinal within the process *)
  fp_offset : int;  (** byte offset of the page frame *)
  fp_count : int;  (** entries the index (or the frame) claims *)
  fp_error : string option;  (** [None] iff the page checks out *)
}

type fsck_report = {
  fk_bytes : int;
  fk_indexed : bool;  (** trailer and footer index intact *)
  fk_tier : string;  (** ["content"] or ["order"] *)
  fk_ckpts : int;  (** intact checkpoint frames *)
  fk_pages : fsck_page list;  (** one row per page, all of them checked *)
  fk_damage : damage list;  (** structural damage (scan path only) *)
  fk_procs : int;
  fk_records : int;  (** records in intact pages *)
  fk_intervals : int;  (** intervals known (index) or salvaged (scan) *)
  fk_clean : bool;
}

val fsck : string -> fsck_report
(** Exhaustive damage report. Unlike {!verify}, whose forward scan
    stops at the first bad frame, [fsck] checks {e every} page the
    footer index names, so damage in the middle of an otherwise-intact
    file is reported per page with offsets; without a usable index it
    reports the salvageable prefix. Either way it walks the file once.
    @raise Unreadable only when the magic itself is not {!magic}. *)

(** One page {!repair} had to leave behind. *)
type repair_drop = {
  rd_pid : int;  (** [-1] when page structure is unknown (scan path) *)
  rd_page : int;  (** ordinal within the process; [-1] on the scan path *)
  rd_offset : int;  (** byte offset in the damaged input *)
  rd_records : int;  (** entries lost with it; [0] when unknowable *)
  rd_reason : string;
}

type repair_report = {
  rp_tier : string;  (** ["content"] or ["order"] *)
  rp_kept_pages : int;  (** intact input pages rewritten *)
  rp_kept_records : int;  (** entries in the rewritten log *)
  rp_kept_ckpts : int;
  rp_dropped : repair_drop list;  (** empty iff nothing was lost *)
  rp_out_bytes : int;  (** size of the rewritten segment *)
}

val repair : string -> out:string -> repair_report
(** Rewrite everything salvageable from a (possibly damaged) log into
    a fresh, fully verified segment at [out] (`ppd log repair`).
    With an intact index, each process keeps its clean page {e prefix}
    — intact pages that follow a damaged page of the same process are
    dropped too (and reported), because the rebuilt interval table
    must keep prelog/postlog nesting coherent. Without a usable index
    the salvage scan's valid prefix is kept. [rp_dropped] is empty iff
    no bytes were lost (the CLI exits 4 otherwise). A page is damaged
    exactly when {!fsck} reports an error for it. @raise Unreadable
    when nothing can be read at all. *)
