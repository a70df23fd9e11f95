(** The one rendering path for the debugging answers.

    Both the one-shot CLI and the daemon produce their reports through these functions ({!Query} calls
    them), so a daemon response is byte-identical to the CLI answer on
    the same saved log {e by construction} — there is no second copy
    of the format strings to drift. The CLI renders into stdout; the daemon renders
    into a buffer that becomes the JSON result's [output] field. *)

type sink = {
  out : string -> unit;  (** plain text (Printf-style lines) *)
  ppf : Format.formatter;
      (** boxed output (trees, graph dumps); shares the destination
          with [out], and every use here ends flushed so the two
          interleave in call order *)
}

val stdout_sink : unit -> sink
(** [print_string] + [Format.std_formatter] — the CLI's historical
    behaviour, including partial output when an exception aborts the
    report midway. *)

val buffer_sink : Buffer.t -> sink

val header : sink -> path:string -> version:int -> nprocs:int -> unit
(** The "debugging saved log …" banner both subcommands print. *)

val flowback_report :
  sink ->
  depth:int ->
  dot:string option ->
  Ppd.Controller.t ->
  int option ->
  unit
(** The flowback answer for an already-located root node: dependence
    tree (or "no events to debug"), hole lines, the "emulated N of M"
    stats line, and the optional dot dump. *)

val replay_report :
  sink -> dump:bool -> nprocs:int -> Ppd.Controller.t -> unit
(** Batch-build every interval of every process (through the
    controller's pool when it has one) and report the graph totals,
    holes, and the optional deterministic graph dump. *)

val restore_report :
  sink -> Lang.Prog.t -> at_step:int -> Ppd.Restore.snapshot -> unit
(** The shared store of a restored snapshot (§5.7), one global a line;
    [at_step = max_int] reads "end". *)

val whatif_report :
  sink ->
  pid:int ->
  iv_id:int ->
  sets:(string * int) list ->
  Ppd.Emulator.outcome ->
  unit
(** A what-if replay's outcome: the overrides, how it ended, and the
    output it printed. *)
