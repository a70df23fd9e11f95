(** The one query path over a log (DESIGN §14.3).

    The one-shot CLI and the daemon both answer a debugging question
    through this module: open a {!source} (a saved log, or the log of a
    run that just finished), run the question under the one failure
    map, and render the answer through {!Render}. A failure
    is one {!Lang.Diag.diagnostic}; the CLI prints it and exits with
    its {!exit_table} status, the daemon answers its code and message.
    So both front ends report a failure with the same message, byte for
    byte. *)

(** {1 Failures} *)

val guard : (unit -> 'a) -> ('a, Lang.Diag.diagnostic) result
(** [guard f] runs [f] under the one exception → diagnostic map:
    - [Store.Segment.Unreadable] → PPD050: the log cannot be read;
    - [Ppd.Controller.Replay_overrun] → PPD060: the replay watchdog
      fired;
    - [Ppd.Reconstruct.Divergence] → PPD061: order-log reconstruction
      diverged from the recorded sync order;
    - [Ppd.Emulator.Replay_mismatch] → PPD062: an e-block replay
      diverged from the log, which a racy recorded execution causes;
    - [Fault.Injected] → PPD086: an injected fault survived the retry
      budget;
    - [Resil.Deadline.Expired] → PPD090: the deadline expired at an
      e-block replay boundary.

    Any other exception propagates. *)

val exit_table : (string * int) list
(** The one code → exit-status table of the CLI: PPD086 → 2,
    PPD050 → 6, PPD060 and PPD090 → 7, PPD061 and PPD062 → 8. Every
    code {!guard} returns has a row. *)

(** {1 Sources} *)

(** Where a source's log comes from. *)
type origin =
  | Saved of string
      (** a log file, by path: the answer's first line is the
          "debugging saved log …" banner and flowback starts from
          process 0 *)
  | Run of Ppd.Session.t
      (** a finished run's in-memory log: the answer's first line is
          {!Ppd.Session.explain_halt} and flowback starts from
          {!Ppd.Session.halt_pid} *)

type source = {
  origin : origin;
  eb : Analysis.Eblock.t;  (** the analysed program *)
  reader : Store.Segment.reader;
}

val open_source :
  ?budget:Resil.Budget.t ->
  policy:Analysis.Eblock.policy ->
  log:string ->
  Lang.Prog.t ->
  (source, Lang.Diag.diagnostic) result
(** Analyse the program and open the log; the reader's page cache joins
    [budget] when one is given. PPD050 when the log cannot be read. *)

val of_session : Ppd.Session.t -> source
(** The session's program and its log, read through
    {!Store.Segment.of_log}. *)

(** {1 Answers}

    Each answer starts a fresh controller over the source ([pool] and
    [shared] as in {!Ppd.Controller.start_paged}), writes its report
    into the sink, and returns the controller's statistics. An
    order-tier log is reconstructed here, or taken from [shared]. On a
    failure the sink may hold a partial answer. *)

val header : Render.sink -> source -> unit
(** The first line of a CLI answer: the "debugging saved log …" banner
    of a saved log, or the halt explanation of a run. {!flowback} and
    {!replay} write it themselves; {!race} does not. *)

val flowback :
  ?shared:Ppd.Fragcache.t ->
  config:Ppd.Controller.config ->
  Render.sink ->
  depth:int ->
  dot:string option ->
  source ->
  (Ppd.Controller.stats, Lang.Diag.diagnostic) result
(** {!header}, then flowback from the last event of the source's root
    process ("no events to debug" for a log without processes).
    Flowback replays only what the walk demands, on the calling domain,
    so it takes no pool. *)

val replay :
  ?pool:Exec.Pool.t ->
  ?shared:Ppd.Fragcache.t ->
  config:Ppd.Controller.config ->
  Render.sink ->
  dump:bool ->
  source ->
  (Ppd.Controller.stats, Lang.Diag.diagnostic) result
(** {!header}, then replay every interval of every process and report
    the graph. *)

val race :
  ?shared:Ppd.Fragcache.t ->
  config:Ppd.Controller.config ->
  Render.sink ->
  source ->
  (Ppd.Race.stats * Ppd.Controller.stats, Lang.Diag.diagnostic) result
(** Race detection from the log (§6.4, {!Ppd.Controller.race}): writes
    {!Ppd.Race.pp_report}'s text, with no header line, and returns the
    detector's stats with the controller's. With [shared] the answer is
    built once per cache and the replays' outcomes are published there.
    Like flowback it takes no pool: it replays only the intervals that
    may touch a shared variable, most of them already in [shared], and
    a hand-off to a worker domain costs more than such a replay. A
    diverged replay is evidence of a race, not a failure: the race is
    reported. *)
