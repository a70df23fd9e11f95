(** Order-tier reconstruction (DESIGN §16).

    An order log stores only the sync-event partial order plus periodic
    checkpoints — none of the value snapshots the emulation package
    needs. Debugging one first {e reconstructs} an equivalent content
    log by re-executing the program deterministically with the recorded
    scheduler and step budget, on the VM whatever engine the header
    names ([vm], or [interp], whose logs are identical, DESIGN §15;
    any other name is a divergence), then validates the re-execution against the
    recorded order: every process must perform exactly the recorded
    sync events, in order, and stop at the recorded sequence number.

    Validation failing means the recording and the re-execution are not
    the same computation (program text, analysis flags or build drift)
    — surfaced by the CLI as PPD061/exit 8, never as silently wrong
    flowback answers. *)

exception Divergence of { reason : string }

val reconstruct : Analysis.Eblock.t -> Trace.Log.t -> Trace.Log.t
(** [reconstruct eb log] is [log] itself for content logs. For an order
    log it re-executes [eb]'s program and returns the full content log
    of that run, carrying over the order log's checkpoints (the
    execution is identical, so the checkpoint cuts remain valid).
    @raise Divergence when the re-execution does not match the recorded
    sync order. *)

val reader :
  Analysis.Eblock.t -> Store.Segment.reader -> Store.Segment.reader * int
(** [reader eb r] decodes [r] whole, reconstructs it, and returns a
    reader over the content log ({!Store.Segment.of_log}) with the
    re-execution's step count — what rebuilding it would cost again.
    @raise Divergence as {!reconstruct}; @raise Store.Segment.Unreadable
    when a page of [r] cannot be read. *)
