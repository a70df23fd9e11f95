module P = Lang.Prog
module VS = Analysis.Varset

type conflict = Write_write | Read_write

type race = {
  rc_var : P.var;
  rc_edge1 : int;
  rc_edge2 : int;
  rc_kind : conflict;
}

type stats = { pairs_examined : int; races : race list }

(* Canonicalise so the detector and the oracle produce literally equal
   lists: edge ids ordered within a race, then races sorted. *)
let norm r =
  if r.rc_edge1 <= r.rc_edge2 then r
  else { r with rc_edge1 = r.rc_edge2; rc_edge2 = r.rc_edge1 }

let compare_race a b =
  match Int.compare a.rc_var.P.vid b.rc_var.P.vid with
  | 0 -> (
    match Int.compare a.rc_edge1 b.rc_edge1 with
    | 0 -> (
      match Int.compare a.rc_edge2 b.rc_edge2 with
      | 0 -> compare a.rc_kind b.rc_kind
      | c -> c)
    | c -> c)
  | c -> c

let dedup_sort races =
  List.sort_uniq compare_race (List.map norm races)

let make (g : Pardyn.t) vid kind (e1 : Pardyn.iedge) (e2 : Pardyn.iedge) =
  {
    rc_var = g.Pardyn.prog.P.vars.(vid);
    rc_edge1 = e1.ie_id;
    rc_edge2 = e2.ie_id;
    rc_kind = kind;
  }

(* Conflicts between one pair of edges: write/write once, read/write in
   either direction. *)
let conflicts g (e1 : Pardyn.iedge) (e2 : Pardyn.iedge) =
  let each kind set a b =
    List.map (fun vid -> make g vid kind a b) (VS.elements set)
  in
  each Write_write (VS.inter e1.ie_writes e2.ie_writes) e1 e2
  @ each Read_write (VS.inter e1.ie_writes e2.ie_reads) e1 e2
  @ each Read_write (VS.inter e1.ie_reads e2.ie_writes) e2 e1

let all_pairs (g : Pardyn.t) =
  let pairs = ref 0 in
  let races = ref [] in
  let edges = g.Pardyn.iedges in
  let n = Array.length edges in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let e1 = edges.(i) and e2 = edges.(j) in
      (* edges of one process are totally ordered by their chain *)
      if e1.ie_pid <> e2.ie_pid then begin
        incr pairs;
        if Pardyn.simultaneous g e1 e2 then races := conflicts g e1 e2 @ !races
      end
    done
  done;
  { pairs_examined = !pairs; races = dedup_sort !races }

let detect (g : Pardyn.t) =
  let edges = g.Pardyn.iedges in
  let nprocs = Array.length g.Pardyn.iedges_of_pid in
  (* accessors.(vid).(pid): the edges of process [pid] that read or
     write [vid], in chain order *)
  let accessors =
    Array.init g.Pardyn.prog.P.nvars (fun _ -> Array.make nprocs [])
  in
  Array.iter
    (fun chain ->
      List.iter
        (fun eid ->
          let e = edges.(eid) in
          VS.fold
            (fun vid () ->
              accessors.(vid).(e.ie_pid) <- eid :: accessors.(vid).(e.ie_pid))
            (VS.union e.ie_reads e.ie_writes)
            ())
        (List.rev chain))
    g.Pardyn.iedges_of_pid;
  let accessors = Array.map (Array.map Array.of_list) accessors in
  let tests = ref 0 in
  let before e1 e2 =
    incr tests;
    Pardyn.edge_before g e1 e2
  in
  (* the first index of [acc] in [lo, hi) whose edge satisfies
     [holds], else [hi], for a [holds] that is false on a prefix of the
     chain and true on the rest *)
  let rec search acc lo hi holds =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if holds edges.(acc.(mid)) then search acc lo mid holds
      else search acc (mid + 1) hi holds
  in
  let races = ref [] in
  Array.iter
    (fun (e : Pardyn.iedge) ->
      VS.fold
        (fun vid () ->
          Array.iteri
            (fun pid acc ->
              if pid <> e.ie_pid then begin
                (* the accessors before [e] are a prefix of the chain and
                   those after it a suffix: the run between them is
                   simultaneous with [e] *)
                let n = Array.length acc in
                let first = search acc 0 n (fun f -> not (before f e)) in
                let last = search acc first n (fun f -> before e f) in
                for i = first to last - 1 do
                  let f = edges.(acc.(i)) in
                  if VS.mem vid f.ie_writes then
                    races := make g vid Write_write e f :: !races;
                  if VS.mem vid f.ie_reads then
                    races := make g vid Read_write e f :: !races
                done
              end)
            accessors.(vid))
        e.ie_writes ())
    edges;
  { pairs_examined = !tests; races = dedup_sort !races }

let is_race_free g = (detect g).races = []

let pp_conflict ppf = function
  | Write_write -> Format.pp_print_string ppf "write/write"
  | Read_write -> Format.pp_print_string ppf "read/write"

let pp_race (_p : P.t) ppf r =
  Format.fprintf ppf "%a conflict on shared '%s' between edges e%d and e%d"
    pp_conflict r.rc_kind r.rc_var.P.vname r.rc_edge1 r.rc_edge2

let pp_edge_context (g : Pardyn.t) ppf eid =
  let e = g.Pardyn.iedges.(eid) in
  let node i = g.Pardyn.nodes.(i) in
  let label n =
    Format.asprintf "%a" Trace.Log.pp_sync_data (node n).Pardyn.n_data
  in
  Format.fprintf ppf "e%d (process %d, after %s%s)" eid e.ie_pid
    (label e.ie_from)
    (match e.ie_to with
    | None -> ", open"
    | Some n -> Printf.sprintf ", before %s" (label n))

let pp_report g ppf races =
  match races with
  | [] -> Format.fprintf ppf "no races detected: execution instance is race-free"
  | _ ->
    Format.fprintf ppf "@[<v>%d race(s) detected:" (List.length races);
    List.iter
      (fun r ->
        Format.fprintf ppf "@,- %a@,    %a@,    %a"
          (pp_race g.Pardyn.prog) r (pp_edge_context g) r.rc_edge1
          (pp_edge_context g) r.rc_edge2)
      races;
    Format.fprintf ppf "@]"
