(** The race detector's oracle: {!Ppd.Race.detect}'s answer from the
    definitions alone. *)

val all_pairs : Ppd.Pardyn.t -> Ppd.Race.stats
(** Tests every cross-process edge pair with
    {!Ppd.Pardyn.simultaneous} and reports each conflicting shared
    variable (Definitions 6.1–6.4). [races] is in {!Ppd.Race.detect}'s
    order; [pairs_examined] counts the pairs tested. Quadratic in the
    number of internal edges. *)
