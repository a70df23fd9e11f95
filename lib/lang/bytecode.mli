(** Flat register bytecode for the execution-phase VM (DESIGN §15).

    [compile] lowers a resolved, type-checked {!Prog.t} to one
    instruction array per function: expression instructions build
    values in a per-frame register window, statement terminators each
    complete exactly one scheduler step, and control flow is
    jump-resolved at compile time. Driver-handled statements (sync ops,
    calls, returns, joins) stay un-lowered as [Isync] carrying the
    interned statement, which the machine's driver executes.

    The register model is stack-discipline: a binary operator evaluates
    its left operand into register [r] and its right into [r+1], so
    [nregs] is the maximum expression depth of the function and windows
    stay tiny. Booleans are 0/1.

    The lowering peephole-fuses the dominant dispatch shapes: a binop
    whose right operand is a literal ([Iaddk] family — a literal on the
    left of a commutative op is swapped over, which is sound because
    literals contribute no reads) or a local scalar ([Iaddv] family,
    reading the variable at exactly the point the elided [Iload] would
    have), counter statements [v = w +/- k] ([Iinc_l]/[Iinc_g]), and
    [while (v <op> literal)] tests ([Iloop_test_vk]). Fusion changes
    dispatch counts only — the event stream, fault messages and fault
    points are identical to the unfused code by construction. *)

type cmp = Clt | Cle | Cgt | Cge | Ceq | Cne

type instr =
  | Iconst of int * int
  | Iload of int * Prog.var * int
  | Igload of int * Prog.var * int
  | Ilelem of int * Prog.var * int
  | Igelem of int * Prog.var * int
  | Ineg of int
  | Inot of int
  | Iadd of int
  | Isub of int
  | Imul of int
  | Idiv of int
  | Imod of int
  | Ilt of int
  | Ile of int
  | Igt of int
  | Ige of int
  | Ieq of int
  | Ine of int
  | Iaddk of int * int
  | Isubk of int * int
  | Imulk of int * int
  | Idivk of int * int
  | Imodk of int * int
  | Icmpk of cmp * int * int
  | Iaddv of int * Prog.var * int
  | Isubv of int * Prog.var * int
  | Imulv of int * Prog.var * int
  | Idivv of int * Prog.var * int
  | Imodv of int * Prog.var * int
  | Icmpv of cmp * int * Prog.var * int
  | Ijmp of int
  | Ijz of int * int
  | Ijnz of int * int
  | Iassign_l of int * Prog.var * int
  | Iassign_g of int * Prog.var * int
  | Iassign_le of int * Prog.var * int
  | Iassign_ge of int * Prog.var * int
  | Iinc_l of Prog.var * int * Prog.var * int * int
  | Iinc_g of Prog.var * int * Prog.var * int * int
  | Ipred of int * int
  | Iloop_head
  | Iloop_test of int * int
  | Iloop_test_vk of cmp * Prog.var * int * int * int
  | Iprint of int
  | Iassert of int
  | Isync of Prog.stmt
  | Iret_void

type fcode = {
  code : instr array;
  code_sids : int array;
      (** statement id owning each instruction ([-1] for [Iret_void]);
          the VM reads this at the pc for fault attribution *)
  nregs : int;
}

type prog = { by_fid : fcode array }

val compile : Prog.t -> prog

val plan : Prog.t -> prog
(** Like {!compile}, memoizing the most recent program (by physical
    identity) so per-run machine creation does not re-lower. *)
