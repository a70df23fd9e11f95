module P = Lang.Prog
module VS = Analysis.Varset
module Pardyn = Ppd.Pardyn
module Race = Ppd.Race

let race (g : Pardyn.t) kind vid (e1 : Pardyn.iedge) (e2 : Pardyn.iedge) =
  {
    Race.rc_var = g.prog.P.vars.(vid);
    rc_edge1 = min e1.ie_id e2.ie_id;
    rc_edge2 = max e1.ie_id e2.ie_id;
    rc_kind = kind;
  }

let key (r : Race.race) = (r.rc_var.P.vid, r.rc_edge1, r.rc_edge2, r.rc_kind)

let all_pairs (g : Pardyn.t) =
  let pairs = ref 0 and races = ref [] in
  let edges = g.iedges in
  let n = Array.length edges in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e1 = edges.(i) and e2 = edges.(j) in
      (* edges of one process are totally ordered by their chain *)
      if e1.ie_pid <> e2.ie_pid then begin
        incr pairs;
        if Pardyn.simultaneous g e1 e2 then begin
          let add kind set =
            VS.fold (fun vid () -> races := race g kind vid e1 e2 :: !races) set ()
          in
          add Race.Write_write (VS.inter e1.ie_writes e2.ie_writes);
          add Race.Read_write (VS.inter e1.ie_writes e2.ie_reads);
          add Race.Read_write (VS.inter e1.ie_reads e2.ie_writes)
        end
      end
    done
  done;
  {
    Race.pairs_examined = !pairs;
    races = List.sort_uniq (fun a b -> compare (key a) (key b)) !races;
  }
