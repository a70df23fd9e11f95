(* What-if experiments (§5.7): "the user could change the values of
   variables and re-start the program from the same point to see the
   effect of these changes on program behavior."

   We run a buggy program once, then — without ever re-executing the
   real program — ask three questions against the log: does the failure
   reproduce? which input fixes it? what happens under a perturbation
   that changes control flow entirely? *)

let src =
  {|
shared int threshold = 10;

func grade(score) {
  if (score >= threshold) {
    return 1;
  }
  return 0;
}

func main() {
  var s1 = grade(12);
  var s2 = grade(7);
  var passed = s1 + s2;
  assert(passed == 2);
}
|}

let report label (o : Ppd.Emulator.outcome) =
  Printf.printf "%-28s %s\n" label
    (match o.fault with
    | Some f -> "halted: " ^ f
    | None -> Printf.sprintf "completed (%d events)" (List.length o.events))

let () =
  let session = Ppd.Session.run src in
  Printf.printf "original run: %s\n\n" (Ppd.Session.explain_halt session);

  let what_if overrides =
    match
      Ppd.Controller.what_if ~iv_id:0 (Ppd.Session.controller session) ~pid:0
        ~overrides
    with
    | Ok (_, o) -> o
    | Error e -> failwith e
  in

  (* 1. the identity experiment reproduces the failure *)
  report "unchanged:" (what_if []);

  (* 2. would a lower threshold have passed? *)
  report "threshold = 5:" (what_if [ ("threshold", 5) ]);

  (* 3. an extreme threshold fails the other grade too *)
  report "threshold = 100:" (what_if [ ("threshold", 100) ]);

  (* 4. experiments also work on inner intervals: re-run just the second
     grade() call with its parameter perturbed *)
  let p = Ppd.Session.prog session in
  let ivs = Trace.Log.intervals (Ppd.Session.log session) ~pid:0 in
  let grade_iv =
    Array.to_list ivs
    |> List.filter (fun iv ->
           match iv.Trace.Log.iv_block with
           | Trace.Log.Bfunc fid -> p.Lang.Prog.funcs.(fid).fname = "grade"
           | _ -> false)
    |> fun l -> List.nth l 1
  in
  (match
     Ppd.Controller.what_if ~iv_id:grade_iv.Trace.Log.iv_id
       (Ppd.Session.controller session) ~pid:0 ~overrides:[ ("score", 11) ]
   with
  | Ok (_, o) ->
    let ret =
      List.fold_left
        (fun acc (_, ev) ->
          match ev with
          | Runtime.Event.E_stmt
              { kind = Runtime.Event.K_return { value = Some v }; _ } ->
            Some v
          | _ -> acc)
        None o.Ppd.Emulator.events
    in
    Printf.printf "\ngrade(7) re-run as grade(11) returns %s (was 0)\n"
      (match ret with Some v -> Runtime.Value.to_string v | None -> "?")
  | Error e -> print_endline e)
