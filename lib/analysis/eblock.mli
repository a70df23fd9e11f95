(** E-block partitioning and per-block USED/DEFINED sets (§5.1, §5.4).

    An emulation block (e-block) is a code segment with a well-defined
    entry point that is bracketed by a prelog (values that may be read)
    and a postlog (values that may be written). Subroutines are the
    natural e-blocks; per §5.4 small {e leaf} subroutines can be denied
    e-block status, in which case their direct callers inherit their
    USED and DEFINED sets and perform the logging for them — the
    execution-phase/debugging-phase cost knob explored by benchmark T3.

    Functions that are spawned as processes, and [main], are always
    e-blocks (a process root must log its own intervals).

    For every e-block [f] we compute:
    - [prelog_vars f]: variables whose values the prelog must capture —
      the upward-exposed reads at entry (reads reachable before a
      definite write), restricted to [f]'s frame and the globals;
      inlined callees contribute their global reads;
    - [postlog_vars f]: variables the postlog must capture — everything
      [f] (plus inlined callees) may write: own locals and globals;
    - the synchronization-unit prelog tables from {!Simplified}, which
      cover shared variables for parallel faithfulness (§5.5). *)

type policy = {
  leaf_inline_max_stmts : int;
      (** leaf functions with at most this many statements are inlined
          into their callers' e-blocks; [0] makes every function its own
          e-block *)
  loop_block_min_body : int;
      (** [while] loops whose region (condition + body, transitively)
          spans at least this many statements become their own e-blocks
          (§5.4: "E-blocks can be defined for such loops so that the
          debugging phase can proceed without excessive time spent in
          re-executing the loops"); [0] disables loop e-blocks *)
}

val default_policy : policy

type t = {
  prog : Lang.Prog.t;
  policy : policy;
  loop_blocks : (int, Lang.Prog.var list * Lang.Prog.var list) Hashtbl.t;
      (** loop sid -> (prelog vars, postlog vars); see {!loop_block_vars} *)
  summary : Interproc.t;
  callgraph : Callgraph.t;
  cfgs : Cfg.t array;  (** per fid *)
  mhp : Mhp.t;
      (** statement-level MHP facts used to prune sync-unit prelogs;
          shared with any later analyses over the same program *)
  simplified : Simplified.t array;  (** per fid *)
  is_eblock : bool array;  (** per fid *)
  used : Varset.t array;
      (** per fid: vars possibly read during the block (own frame +
          globals, incl. inlined callees' globals) *)
  defined : Varset.t array;  (** per fid: vars possibly written *)
  prelog_vars : Lang.Prog.var list array;
      (** per fid, sorted by vid; empty for non-e-blocks *)
  postlog_vars : Lang.Prog.var list array;
  code : Lang.Bytecode.prog;
      (** the program's bytecode, compiled once with the analysis: the
          code runs execute and every replay of its e-blocks steps on *)
}

val analyze :
  ?policy:policy -> ?prune_sync_prelogs:bool -> ?mhp:Mhp.t -> Lang.Prog.t -> t
(** [prune_sync_prelogs] (default [true]) drops shared reads from the
    synchronization-unit prelog sets when {!Mhp.prelog_required} proves
    every write feeding them is same-process, after the read, or before
    every spawn of the reader — fewer log entries, identical replay.
    Pass [false] to size the unpruned sets (benchmark ablation).
    [mhp] substitutes a caller-supplied relation — e.g. one refined
    with {!Proto} must-ordering chains, whose extra edges let
    {!Mhp.prelog_required} discharge more prelog reads; only its
    ordering facts matter here (mutual exclusion alone cannot prune a
    prelog: an excluded-but-unordered write can still feed the read). *)

val loop_block_vars :
  t -> sid:int -> (Lang.Prog.var list * Lang.Prog.var list) option
(** [Some (prelog_vars, postlog_vars)] when the loop at [sid] is its own
    e-block: the variables its region may read / write (enclosing frame
    plus globals; inlined callees contribute their global effects). *)

val is_loop_block : t -> sid:int -> bool

val sync_prelog_vars_after : t -> fid:int -> sid:int -> Lang.Prog.var list
(** Shared variables to snapshot right after sync/call statement [sid]
    (empty when no unit starts there or the unit reads no shared
    variables). *)

val sync_prelog_vars_at_entry : t -> fid:int -> Lang.Prog.var list
(** Shared variables read by the unit starting at [fid]'s ENTRY. These
    are already covered by the e-block prelog when [fid] is an e-block,
    but inlined functions still need them at call time. *)

val stmt_count : Lang.Prog.func -> int

val pp_summary : Format.formatter -> t -> unit
(** One line per function: e-block?, |prelog|, |postlog|. *)
