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
(** The one code → exit-status table of the CLI: PPD082 → 1,
    PPD086 → 2, PPD050 → 6, PPD060 and PPD090 → 7, PPD061 and
    PPD062 → 8. Every code {!guard} returns has a row; PPD082 is the
    answer to a question the log cannot answer as asked (a what-if on a
    process, interval or variable it does not record). *)

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

    Each answer starts a controller over the source ([pool] and
    [shared] as in {!Ppd.Controller.start_paged}), writes its report
    into the sink, and returns the controller's statistics. With
    [shared], a clean [flowback] or [replay] that does not print the
    graph itself borrows the dynamic graph [shared] keeps
    ({!Ppd.Controller.borrow}, DESIGN §14.6); its answer is the same. An
    order-tier log is reconstructed here, or taken from [shared]. On a
    failure the sink may hold a partial answer. *)

val header : Render.sink -> source -> unit
(** The first line of a CLI answer: the "debugging saved log …" banner
    of a saved log, or the halt explanation of a run. Every row but
    [race] writes it itself. *)

val race :
  ?shared:Ppd.Fragcache.t ->
  config:Ppd.Controller.config ->
  Render.sink ->
  source ->
  (Ppd.Race.stats * Ppd.Controller.stats, Lang.Diag.diagnostic) result
(** The [race] row's answer with the detector's stats (§6.4,
    {!Ppd.Controller.race}): writes {!Ppd.Race.pp_report}'s text, with
    no header line, then the degraded-mode holes. With [shared] it
    borrows the cache's dynamic graph, as flowback does: the intervals
    it reads are assembled there, and the answer is kept with the graph,
    so it is built once per graph. A degraded request builds its own.
    Like flowback it takes no pool: it replays only the intervals that
    may touch a shared variable, many of them already in the graph, and
    a hand-off to a worker domain costs more than such a replay. A diverged replay
    is evidence of a race, not a failure: the race is reported. A
    diverged build that reports no race is PPD062, or a hole in
    degraded mode. *)

(** {1 The command table}

    Every log-debugging command is one {!row}: its name, its typed
    parameters and its answer over a {!source}. The CLI derives one
    subcommand per row (each parameter's flag is the kebab-case of its
    key) and the daemon one method (the key itself), so both front ends
    take the same parameters with the same defaults and answer through
    the same function. *)

type value =
  | Int of int
  | Flag of bool
  | Assigns of (string * int) list  (** [VAR=N] pairs, in order *)

type param = {
  key : string;  (** the RPC key, camelCase; {!kebab} of it is the CLI flag *)
  default : value;  (** also the parameter's type *)
  docv : string;  (** the value's name in the CLI help *)
  doc : string;
}

type args = (string * value) list
(** A value for each parameter of a row and of {!common}, by key. *)

val kebab : string -> string
(** ["maxReplaySteps"] → ["max-replay-steps"]. *)

val common : param list
(** The parameters every row takes: [degraded] and [maxReplaySteps]. *)

val config : args -> Ppd.Controller.config
(** {!Ppd.Controller.default_config} with {!common}'s values. *)

(** What a front end supplies beside the parameters. *)
type ctx = {
  config : Ppd.Controller.config;
  pool : Exec.Pool.t option;  (** replay's domain pool *)
  shared : Ppd.Fragcache.t option;  (** the daemon's per-log cache *)
  dot : string option;  (** flowback's Graphviz file (CLI only) *)
}

type answer = {
  stats : Ppd.Controller.stats;
  fields : (string * int) list;
      (** the row's own result fields (race: [races], [pairsExamined]) *)
  findings : Lang.Diag.diagnostic list;
      (** what the answer found (race: one warning per race); the CLI
          exits 3 when there is any *)
}

type row = {
  name : string;
  doc : string;
  params : param list;  (** the row's own, beside {!common} *)
  run :
    ctx -> args -> Render.sink -> source -> (answer, Lang.Diag.diagnostic) result;
      (** writes the answer's text into the sink *)
}

val table : row list
(** In order:
    - [flowback] (depth): {!header}, then flowback from the last event
      of the source's root process (the halted one for a run, process 0
      for a saved log; "no events to debug" for a log without
      processes). It replays only what the walk demands, on the calling
      domain, so it takes no pool.
    - [replay] (dump): {!header}, then replay every interval of every
      process (on the pool, when there is one) and report the graph.
    - [race]: {!race}; its fields are [races] and [pairsExamined], its
      findings one PPD010/PPD011 warning per race.
    - [restore] (atStep): {!header}, then the shared store restored from
      the controller's content log ({!Ppd.Restore.shared_at}, §5.7) at
      that machine step ([max_int], the default: the end).
    - [whatif] (pid, interval, set): {!header}, then
      {!Ppd.Controller.what_if}'s replay of that interval (a negative
      one, the default: the process's root block) with the overrides.
      A process, interval or variable the log does not record is
      PPD082. *)

val find : string -> row option
