(* Unit coverage for the small foundational modules: locations, values,
   tokens, schedulers and the dynamic-graph container. *)

let test_loc () =
  let a = Lang.Loc.make ~line:3 ~col:7 in
  let b = Lang.Loc.make ~line:3 ~col:9 in
  Alcotest.(check string) "pp" "3:7" (Lang.Loc.to_string a);
  Alcotest.(check string) "none" "?" (Lang.Loc.to_string Lang.Loc.none);
  Alcotest.(check bool) "order" true (Lang.Loc.compare a b < 0);
  Alcotest.(check bool) "line dominates" true
    (Lang.Loc.compare b (Lang.Loc.make ~line:4 ~col:1) < 0);
  Alcotest.(check bool) "is_none" true (Lang.Loc.is_none Lang.Loc.none);
  Alcotest.(check bool) "equal" true (Lang.Loc.equal a a)

let test_diag () =
  (match Lang.Diag.protect (fun () -> 42) with
  | Ok n -> Alcotest.(check int) "ok" 42 n
  | Error _ -> Alcotest.fail "expected ok");
  match
    Lang.Diag.protect (fun () ->
        Lang.Diag.error (Lang.Loc.make ~line:1 ~col:2) "boom %d" 7)
  with
  | Error (loc, msg) ->
    Alcotest.(check string) "msg" "boom 7" msg;
    Alcotest.(check int) "line" 1 loc.Lang.Loc.line
  | Ok _ -> Alcotest.fail "expected error"

let test_value () =
  let open Runtime.Value in
  Alcotest.(check int) "to_int" 5 (to_int (Vint 5));
  Alcotest.check_raises "undef" Undefined (fun () -> ignore (to_int Vundef));
  let a = Varr [| 1; 2 |] in
  let c = copy a in
  (match (a, c) with
  | Varr x, Varr y ->
    y.(0) <- 99;
    Alcotest.(check int) "deep copy" 1 x.(0)
  | _ -> Alcotest.fail "arrays");
  Alcotest.(check bool) "array equality by contents" true
    (equal (Varr [| 1; 2 |]) (Varr [| 1; 2 |]));
  Alcotest.(check bool) "inequality" false (equal (Vint 1) Vundef);
  Alcotest.(check string) "pp array" "[1, 2]" (to_string (Varr [| 1; 2 |]));
  Alcotest.(check string) "pp undef" "undef" (to_string Vundef)

let test_token_describe () =
  Alcotest.(check string) "keyword" "while" (Lang.Token.describe Lang.Token.WHILE);
  Alcotest.(check string) "ident class" "identifier"
    (Lang.Token.describe (Lang.Token.IDENT "zzz"));
  Alcotest.(check string) "pp carries payload" "IDENT(zzz)"
    (Lang.Token.to_string (Lang.Token.IDENT "zzz"))

let test_sched_round_robin () =
  let s = Runtime.Sched.create (Runtime.Sched.Round_robin 2) in
  let picks = List.init 6 (fun _ -> Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ]) in
  Alcotest.(check (list int)) "quantum 2 rotation" [ 0; 0; 1; 1; 2; 2 ] picks;
  (* a blocked current process forfeits the rest of its quantum *)
  let s = Runtime.Sched.create (Runtime.Sched.Round_robin 3) in
  let _ = Runtime.Sched.pick s ~runnable:[ 0; 1 ] in
  let p = Runtime.Sched.pick s ~runnable:[ 1 ] in
  Alcotest.(check int) "skips blocked" 1 p

(* The regression: [round_robin] used to trust the runnable list to be
   sorted (taking the first pid greater than the current one), so a
   shuffled list mis-rotated — the schedule must be a function of the
   runnable *set*, not its order. *)
let test_sched_round_robin_unsorted () =
  let picks order =
    let s = Runtime.Sched.create (Runtime.Sched.Round_robin 1) in
    List.init 8 (fun _ -> Runtime.Sched.pick s ~runnable:order)
  in
  let sorted = picks [ 0; 1; 2; 3 ] in
  Alcotest.(check (list int))
    "sorted baseline" [ 0; 1; 2; 3; 0; 1; 2; 3 ] sorted;
  List.iter
    (fun order ->
      Alcotest.(check (list int))
        (Printf.sprintf "order %s"
           (String.concat "," (List.map string_of_int order)))
        sorted (picks order))
    [ [ 3; 2; 1; 0 ]; [ 2; 0; 3; 1 ]; [ 1; 3; 0; 2 ]; [ 0; 2; 1; 3 ] ];
  (* duplicates in the runnable list must not extend the rotation *)
  Alcotest.(check (list int))
    "duplicates collapse" [ 0; 1; 2; 3; 0; 1; 2; 3 ]
    (picks [ 2; 0; 2; 3; 1; 0 ])

let test_sched_random_deterministic () =
  let run () =
    let s = Runtime.Sched.create (Runtime.Sched.Random_seed 5) in
    List.init 20 (fun _ -> Runtime.Sched.pick s ~runnable:[ 0; 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "seeded" (run ()) (run ())

let test_sched_scripted () =
  let s = Runtime.Sched.create (Runtime.Sched.Scripted [ 2; 2; 0; 9; 1 ]) in
  let p1 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  let p2 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  let p3 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  let p4 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  (* 9 is never runnable and is skipped *)
  Alcotest.(check (list int)) "script" [ 2; 2; 0; 1 ] [ p1; p2; p3; p4 ];
  (* exhausted script falls back to round robin *)
  let p5 = Runtime.Sched.pick s ~runnable:[ 0; 1; 2 ] in
  Alcotest.(check bool) "fallback picks a runnable" true (List.mem p5 [ 0; 1; 2 ])

let test_dyn_graph_container () =
  let open Ppd.Dyn_graph in
  let g = create () in
  Alcotest.(check int) "empty" 0 (nnodes g);
  let p = Util.compile "func main() { }" in
  ignore p;
  let n1 = add_node g ~pid:0 ~kind:(N_entry 0) ~label:"entry" () in
  let n2 =
    add_node g
      ~ref_:{ Runtime.Event.epid = 0; eseq = 5 }
      ~value:(Runtime.Value.Vint 7) ~pid:0 ~kind:(N_singular 3) ~label:"x = 7" ()
  in
  let n3 = add_node g ~owner:n2 ~pid:0 ~kind:(N_param 1) ~label:"%1" () in
  Alcotest.(check int) "three nodes" 3 (nnodes g);
  add_edge g ~src:n1 ~dst:n2 ~kind:Control;
  add_edge g ~src:n1 ~dst:n2 ~kind:Control;
  (* duplicate ignored *)
  Alcotest.(check int) "dedup edges" 1 (nedges g);
  Alcotest.(check (list int)) "preds" [ n1 ] (List.map fst (preds g n2));
  Alcotest.(check (list int)) "succs" [ n2 ] (List.map fst (succs g n1));
  Alcotest.(check bool) "ref lookup" true
    (find_ref g { Runtime.Event.epid = 0; eseq = 5 } = Some n2);
  Alcotest.(check bool) "missing ref" true
    (find_ref g { Runtime.Event.epid = 1; eseq = 5 } = None);
  Alcotest.(check bool) "owner" true ((node g n3).nd_owner = Some n2);
  Alcotest.(check bool) "value" true
    ((node g n2).nd_value = Some (Runtime.Value.Vint 7));
  set_value g n2 (Runtime.Value.Vint 9);
  Alcotest.(check bool) "set_value" true
    ((node g n2).nd_value = Some (Runtime.Value.Vint 9));
  (* growth beyond the initial capacity *)
  for i = 0 to 99 do
    ignore (add_node g ~pid:1 ~kind:(N_singular i) ~label:"n" ())
  done;
  Alcotest.(check int) "growth" 103 (nnodes g);
  Alcotest.check_raises "bad edge" (Invalid_argument "Dyn_graph.add_edge: bad node id")
    (fun () -> add_edge g ~src:0 ~dst:9999 ~kind:Flow)

(* Edges come back in the order they were added, whichever endpoint is
   asked, however many edges share it. *)
let test_dyn_graph_edge_order () =
  let open Ppd.Dyn_graph in
  let g = create () in
  let ns =
    Array.init 6 (fun i -> add_node g ~pid:0 ~kind:(N_singular i) ~label:"n" ())
  in
  let v =
    { Lang.Prog.vid = 3; vname = "x"; vty = Lang.Prog.Tint;
      vscope = Lang.Prog.Global 0; vfid = -1 }
  in
  let added =
    [ (ns.(4), Flow); (ns.(1), Data v); (ns.(2), Control); (ns.(1), Control);
      (ns.(3), Dparam 2); (ns.(0), Sync) ]
  in
  List.iter (fun (src, kind) -> add_edge g ~src ~dst:ns.(5) ~kind) added;
  List.iter (fun dst -> add_edge g ~src:ns.(1) ~dst ~kind:Flow) [ ns.(3); ns.(0) ];
  let name (i, k) =
    Printf.sprintf "%d %s" i
      (match k with
      | Flow -> "flow"
      | Data v -> "data:" ^ v.Lang.Prog.vname
      | Dparam i -> Printf.sprintf "param:%d" i
      | Control -> "ctrl"
      | Sync -> "sync")
  in
  Alcotest.(check (list string)) "preds in insertion order"
    (List.map name added) (List.map name (preds g ns.(5)));
  Alcotest.(check (list string)) "succs in insertion order"
    (List.map name [ (ns.(5), Data v); (ns.(5), Control); (ns.(3), Flow); (ns.(0), Flow) ])
    (List.map name (succs g ns.(1)));
  Alcotest.(check int) "edge count" 8 (nedges g)

(* A data edge is a duplicate when its variable has the same vid, even
   through another record for that variable; other kinds are distinct. *)
let test_dyn_graph_idempotent () =
  let open Ppd.Dyn_graph in
  let g = create () in
  let a = add_node g ~pid:0 ~kind:(N_entry 0) ~label:"a" () in
  let b = add_node g ~pid:0 ~kind:(N_singular 0) ~label:"b" () in
  let var vid vname =
    { Lang.Prog.vid; vname; vty = Lang.Prog.Tint; vscope = Lang.Prog.Local 0;
      vfid = 0 }
  in
  let x = var 7 "x" in
  add_edge g ~src:a ~dst:b ~kind:(Data x);
  add_edge g ~src:a ~dst:b ~kind:(Data (var 7 "x"));
  add_edge g ~src:a ~dst:b ~kind:(Data { x with vname = "alias" });
  Alcotest.(check int) "same vid, three records: one edge" 1 (nedges g);
  add_edge g ~src:a ~dst:b ~kind:(Data (var 8 "y"));
  add_edge g ~src:a ~dst:b ~kind:(Dparam 1);
  add_edge g ~src:a ~dst:b ~kind:(Dparam 1);
  add_edge g ~src:a ~dst:b ~kind:(Dparam 0);
  add_edge g ~src:a ~dst:b ~kind:Flow;
  add_edge g ~src:a ~dst:b ~kind:Control;
  add_edge g ~src:a ~dst:b ~kind:Sync;
  add_edge g ~src:a ~dst:b ~kind:Sync;
  add_edge g ~src:b ~dst:a ~kind:Sync;
  Alcotest.(check int) "distinct kinds and directions" 8 (nedges g);
  Alcotest.(check (list string)) "the first record names the variable"
    [ "x"; "y" ]
    (List.filter_map
       (function _, Data v -> Some v.Lang.Prog.vname | _ -> None)
       (preds g b))

(* The event index holds any sequence number, and its memory follows the
   nodes built, not the largest sequence number seen. *)
let test_dyn_graph_event_index () =
  let open Ppd.Dyn_graph in
  let g = create () in
  let big = 1 lsl 40 in
  let ids =
    List.init 200 (fun i ->
        let eseq = big + (i * 1_000_003) in
        let pid = i mod 3 in
        ( { Runtime.Event.epid = pid; eseq },
          add_node g ~ref_:{ Runtime.Event.epid = pid; eseq } ~pid
            ~kind:(N_singular i) ~label:"n" () ))
  in
  List.iter
    (fun (r, id) ->
      Alcotest.(check (option int)) "found" (Some id) (find_ref g r);
      Alcotest.(check int) "seq" r.Runtime.Event.eseq (node_seq g id);
      Alcotest.(check bool) "ref in the view" true ((node g id).nd_ref = Some r))
    ids;
  Alcotest.(check (option int)) "other pid" None
    (find_ref g { Runtime.Event.epid = 5; eseq = big });
  Alcotest.(check (option int)) "unseen seq" None
    (find_ref g { Runtime.Event.epid = 0; eseq = big + 1 });
  (* the index is sized by the nodes built, not by sequence numbers:
     the same nodes at small sequence numbers take as many words, and a
     graph of 5 000 evented nodes stays within a few words a node *)
  let words n ~base =
    let g = create () in
    for i = 0 to n - 1 do
      ignore
        (add_node g ~ref_:{ Runtime.Event.epid = i mod 3; eseq = base + i }
           ~pid:(i mod 3) ~kind:(N_singular 0) ~label:"n" ())
    done;
    Obj.reachable_words (Obj.repr g)
  in
  Alcotest.(check int) "independent of sequence numbers" (words 200 ~base:0)
    (words 200 ~base:big);
  Alcotest.(check bool) "a few words a node" true
    (words 5_000 ~base:big < 5_000 * 16);
  Alcotest.check_raises "an event of another process"
    (Invalid_argument "Dyn_graph.add_node: the event must be one of process pid")
    (fun () ->
      ignore
        (add_node g ~ref_:{ Runtime.Event.epid = 1; eseq = 0 } ~pid:0
           ~kind:(N_entry 0) ~label:"n" ()))

(* The frontier keeps marking order, newest first, and drops a node
   once resolved; the O(1) flag agrees with the list. *)
let test_dyn_graph_externals () =
  let open Ppd.Dyn_graph in
  let g = create () in
  let var vid =
    { Lang.Prog.vid; vname = Printf.sprintf "v%d" vid; vty = Lang.Prog.Tint;
      vscope = Lang.Prog.Global vid; vfid = -1 }
  in
  let ext vid =
    let id =
      add_node g ~pid:0 ~kind:(N_external (var vid)) ~label:"ext" ()
    in
    mark_external g id (var vid);
    id
  in
  let plain = add_node g ~pid:0 ~kind:(N_entry 0) ~label:"entry" () in
  let e1 = ext 1 in
  let e2 = ext 2 in
  let e3 = ext 3 in
  let frontier () =
    List.map (fun (i, (v : Lang.Prog.var)) -> (i, v.vname)) (externals g)
  in
  let pair = Alcotest.(list (pair int string)) in
  Alcotest.check pair "newest first" [ (e3, "v3"); (e2, "v2"); (e1, "v1") ]
    (frontier ());
  resolve_external g e2;
  Alcotest.check pair "resolved dropped" [ (e3, "v3"); (e1, "v1") ] (frontier ());
  resolve_external g e2;
  resolve_external g plain;
  Alcotest.check pair "resolving again is a no-op" [ (e3, "v3"); (e1, "v1") ]
    (frontier ());
  let e4 = ext 4 in
  Alcotest.check pair "a new mark goes first"
    [ (e4, "v4"); (e3, "v3"); (e1, "v1") ] (frontier ());
  mark_external g e2 (var 2);
  Alcotest.check pair "re-marking puts it back at the front"
    [ (e2, "v2"); (e4, "v4"); (e3, "v3"); (e1, "v1") ] (frontier ());
  List.iter
    (fun i ->
      Alcotest.(check bool) "flag agrees with the frontier"
        (List.mem_assoc i (externals g)) (is_external g i))
    [ plain; e1; e2; e3; e4 ];
  Alcotest.(check bool) "the kind survives resolution" true
    (match (node g e2).nd_kind with N_external v -> v.vname = "v2" | _ -> false);
  Alcotest.check_raises "only external nodes"
    (Invalid_argument "Dyn_graph.mark_external: not an external node")
    (fun () -> mark_external g plain (var 9))

(* Values: absent until set, and [set_value] shows through [node]. *)
let test_dyn_graph_values () =
  let open Ppd.Dyn_graph in
  let g = create () in
  let a = add_node g ~pid:2 ~kind:(N_singular 0) ~label:"a" () in
  let b =
    add_node g ~value:Runtime.Value.Vundef ~pid:2 ~kind:(N_singular 1)
      ~label:"b" ()
  in
  Alcotest.(check bool) "no value" true ((node g a).nd_value = None);
  Alcotest.(check bool) "undef is a value" true
    ((node g b).nd_value = Some Runtime.Value.Vundef);
  set_value g a (Runtime.Value.Varr [| 1; 2 |]);
  Alcotest.(check bool) "set" true
    ((node g a).nd_value = Some (Runtime.Value.Varr [| 1; 2 |]));
  set_value g a (Runtime.Value.Vint 3);
  Alcotest.(check bool) "set again" true
    ((node g a).nd_value = Some (Runtime.Value.Vint 3));
  Alcotest.(check bool) "others untouched" true
    ((node g b).nd_value = Some Runtime.Value.Vundef)

let test_interp_frame () =
  let p =
    Util.compile "func f(a, b) { var x = a; var arr[2]; return x + b; } func main() { }"
  in
  let frame =
    Runtime.Interp.make_frame p ~fid:0
      ~args:[ Runtime.Value.Vint 1; Runtime.Value.Vint 2 ]
      ~ret_lhs:None ~call_sid:None
  in
  let binds = Runtime.Interp.binds_of_frame p frame in
  Alcotest.(check (list string)) "param names" [ "a"; "b" ]
    (List.map (fun ((v : Lang.Prog.var), _) -> v.vname) binds);
  (* arrays pre-allocated, scalars undefined *)
  let f = p.funcs.(0) in
  List.iter
    (fun (v : Lang.Prog.var) ->
      match (v.vname, v.vscope) with
      | "arr", Lang.Prog.Local slot ->
        Alcotest.(check bool) "array allocated" true
          (match frame.slots.(slot) with
          | Runtime.Value.Varr a -> Array.length a = 2
          | _ -> false)
      | "x", Lang.Prog.Local slot ->
        Alcotest.(check bool) "scalar undef" true
          (frame.slots.(slot) = Runtime.Value.Vundef)
      | _ -> ())
    f.locals

let suite =
  ( "units",
    [
      Alcotest.test_case "locations" `Quick test_loc;
      Alcotest.test_case "diagnostics" `Quick test_diag;
      Alcotest.test_case "values" `Quick test_value;
      Alcotest.test_case "tokens" `Quick test_token_describe;
      Alcotest.test_case "round robin" `Quick test_sched_round_robin;
      Alcotest.test_case "round robin on unsorted runnable lists" `Quick
        test_sched_round_robin_unsorted;
      Alcotest.test_case "random scheduler determinism" `Quick
        test_sched_random_deterministic;
      Alcotest.test_case "scripted scheduler" `Quick test_sched_scripted;
      Alcotest.test_case "dynamic graph container" `Quick test_dyn_graph_container;
      Alcotest.test_case "dynamic graph edge order" `Quick test_dyn_graph_edge_order;
      Alcotest.test_case "dynamic graph idempotent edges" `Quick
        test_dyn_graph_idempotent;
      Alcotest.test_case "dynamic graph event index" `Quick
        test_dyn_graph_event_index;
      Alcotest.test_case "dynamic graph frontier" `Quick test_dyn_graph_externals;
      Alcotest.test_case "dynamic graph values" `Quick test_dyn_graph_values;
      Alcotest.test_case "interpreter frames" `Quick test_interp_frame;
    ] )
