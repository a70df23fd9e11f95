(* The interpreter's expression evaluator: values AND the recorded read
   sets (their order and short-circuit behaviour feed the dynamic
   dependence graph, so they are load-bearing). *)

module I = Runtime.Interp
module P = Lang.Prog

(* Evaluate [expr] in a tiny program where locals a, b, c = 10, 0, -3
   and shared g = 7. *)
let eval_in expr_src =
  let src =
    Printf.sprintf
      "shared int g = 7;\nfunc main() {\n  var a = 10;\n  var b = 0;\n  var c = -3;\n  var arr[3];\n  arr[1] = 5;\n  print(%s);\n}\n"
      expr_src
  in
  let p = Util.compile src in
  (* run the machine up to the print and capture its event *)
  let acc = ref [] in
  let m = Runtime.Machine.create ~hooks:(Runtime.Hooks.collect acc) p in
  (match Runtime.Machine.run m with
  | Runtime.Machine.Finished -> ()
  | h -> Alcotest.failf "eval run failed: %s" (Util.halt_name h));
  let print_event =
    List.rev !acc
    |> List.find_map (fun (_, _, ev) ->
           match ev with
           | Runtime.Event.E_stmt
               { kind = Runtime.Event.K_print { value }; reads; _ } ->
             Some (value, reads)
           | _ -> None)
  in
  match print_event with
  | Some (value, reads) ->
    ( value,
      List.map
        (fun (rw : Runtime.Event.rw) ->
          (rw.var.P.vname, Runtime.Value.to_string rw.value))
        reads )
  | None -> Alcotest.fail "no print event"

let check_eval name expr expected_value expected_reads =
  Alcotest.test_case name `Quick (fun () ->
      let v, reads = eval_in expr in
      Alcotest.(check string) (name ^ " value") expected_value
        (Runtime.Value.to_string v);
      Alcotest.(check (list (pair string string))) (name ^ " reads")
        expected_reads reads)

(* ------------------------------------------------------------------ *)
(* The split evaluators against the boxed oracle ({!Eval_oracle}).      *)
(* ------------------------------------------------------------------ *)

let var vid vname vty vscope vfid = { P.vid; vname; vty; vscope; vfid }

(* Locals of function 0: a = 10, z = 0, u uninitialised, arr = [5; -2;
   0]; shared g = 7, garr = [0; 3], gu uninitialised; and a local of
   another function, which no frame of function 0 may read. *)
let vars =
  [|
    var 0 "a" P.Tint (P.Local 0) 0;
    var 1 "z" P.Tint (P.Local 1) 0;
    var 2 "u" P.Tint (P.Local 2) 0;
    var 3 "arr" (P.Tarr 3) (P.Local 3) 0;
    var 4 "g" P.Tint (P.Global 0) (-1);
    var 5 "garr" (P.Tarr 2) (P.Global 1) (-1);
    var 6 "gu" P.Tint (P.Global 2) (-1);
    var 7 "alien" P.Tint (P.Local 0) 1;
  |]

let gen_expr =
  let open QCheck2.Gen in
  let some_var = map (fun i -> vars.(i)) (int_range 0 (Array.length vars - 1)) in
  let leaf =
    frequency
      [
        (3, map (fun n -> P.Eint n) (int_range (-3) 3));
        (1, map (fun b -> P.Ebool b) bool);
        (3, map (fun v -> P.Evar v) some_var);
      ]
  in
  let unop = oneofl Lang.Ast.[ Neg; Not ] in
  let binop =
    oneofl
      Lang.Ast.[ Add; Sub; Mul; Div; Mod; Lt; Leq; Gt; Geq; Eq; Neq; And; Or ]
  in
  sized_size (int_range 0 5)
  @@ fix (fun self n ->
         if n = 0 then leaf
         else
           frequency
             [
               (1, leaf);
               (1, map2 (fun v e -> P.Eidx (v, e)) some_var (self (n - 1)));
               (1, map2 (fun op e -> P.Eunop (op, e)) unop (self (n - 1)));
               ( 4,
                 map3
                   (fun op a b -> P.Ebinop (op, a, b))
                   binop (self (n - 1)) (self (n - 1)) );
             ])

(* A fresh context over the store above; [log] records every shared
   read the evaluator makes, faulting runs included. *)
let oracle_ctx prog log =
  let globals =
    [| Runtime.Value.Vint 7; Runtime.Value.Varr [| 0; 3 |]; Runtime.Value.Vundef |]
  in
  let frame =
    {
      I.ffid = 0;
      slots =
        [|
          Runtime.Value.Vint 10;
          Runtime.Value.Vint 0;
          Runtime.Value.Vundef;
          Runtime.Value.Varr [| 5; -2; 0 |];
        |];
      work = [];
      active_loops = [];
      ret_lhs = None;
      call_sid = None;
    }
  in
  {
    I.prog;
    read_global =
      (fun slot ->
        log := slot :: !log;
        globals.(slot));
    write_global = (fun slot v -> globals.(slot) <- v);
    frame;
  }

(* The result or the fault, the reads as (vid, value), and the shared
   reads made on the way. *)
let observe prog f =
  let log = ref [] in
  let ctx = oracle_ctx prog log in
  let result =
    match f ctx with
    | v, reads ->
      Ok
        ( v,
          List.map (fun (rw : Runtime.Event.rw) -> (rw.var.P.vid, rw.value)) reads
        )
    | exception I.Fault m -> Error m
  in
  (result, List.rev !log)

(* [print e] through the interpreter's statement step. *)
let step_print ctx e =
  let s = { P.sid = 0; loc = Lang.Loc.none; desc = P.Sprint e } in
  ctx.I.frame.work <- [ I.Wstmt s ];
  match I.step_local ctx with
  | I.Event { kind = Runtime.Event.K_print { value }; reads; _ } -> (value, reads)
  | _ -> Alcotest.fail "print did not step to a print event"

let split_eval_matches_oracle =
  let prog = Util.compile "func main() { }" in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:3000
       ~name:"eval_int/eval_bool/print = boxed oracle (random, ill-typed trees)"
       ~print:(Format.asprintf "%a" P.pp_expr)
       gen_expr
       (fun e ->
         observe prog (fun c -> I.eval_int c e)
         = observe prog (fun c -> Eval_oracle.eval_int c e)
         && observe prog (fun c -> I.eval_bool c e)
            = observe prog (fun c -> Eval_oracle.eval_bool c e)
         && observe prog (fun c -> step_print c e)
            = observe prog (fun c -> Eval_oracle.print_value c e)))

(* The faults the property must reach, each pinned once: the oracle and
   the split evaluators raise the same message. *)
let test_fault_cases () =
  let prog = Util.compile "func main() { }" in
  let open Lang.Ast in
  let i n = P.Eint n and v k = P.Evar vars.(k) in
  let cases =
    [
      ("division by zero", P.Ebinop (Div, v 0, v 1), "division by zero");
      ("modulo by zero", P.Ebinop (Mod, v 0, i 0), "modulo by zero");
      ( "index out of bounds",
        P.Eidx (vars.(3), i 3),
        "index 3 out of bounds for 'arr' (length 3)" );
      ( "shared index out of bounds",
        P.Eidx (vars.(5), P.Eunop (Neg, i 1)),
        "index -1 out of bounds for 'garr' (length 2)" );
      ("uninitialised local", v 2, "read of uninitialised variable 'u'");
      ("uninitialised shared", v 6, "read of uninitialised variable 'gu'");
      ("array as scalar", v 3, "array 'arr' used as a scalar");
      ("scalar as array", P.Eidx (vars.(0), i 0), "'a' is not an array");
      ("foreign frame", v 7, "internal: read of alien outside its frame");
      ( "int == bool, both sides read first",
        P.Ebinop (Eq, v 4, P.Ebinop (Lt, v 0, v 4)),
        "'==' between int and bool" );
      ( "bool where int expected",
        P.Ebinop (Add, P.Ebool true, v 0),
        "internal: boolean where integer expected" );
    ]
  in
  List.iter
    (fun (name, e, msg) ->
      let want = observe prog (fun c -> Eval_oracle.eval_int c e) in
      Alcotest.(check bool) (name ^ ": oracle message") true
        (fst want = Error msg);
      Alcotest.(check bool) (name ^ ": eval_int = oracle") true
        (observe prog (fun c -> I.eval_int c e) = want))
    cases;
  (* the int/bool fault comes after both operands' shared reads *)
  let e = P.Ebinop (Eq, v 4, P.Ebinop (Lt, v 0, v 4)) in
  Alcotest.(check (list int)) "== reads g twice before its fault" [ 0; 0 ]
    (snd (observe prog (fun c -> I.eval_bool c e)))

let suite =
  ( "interp-eval",
    [
      split_eval_matches_oracle;
      Alcotest.test_case "fault messages = oracle" `Quick test_fault_cases;
      check_eval "literal" "42" "42" [];
      check_eval "variable" "a" "10" [ ("a", "10") ];
      check_eval "shared" "g" "7" [ ("g", "7") ];
      check_eval "left-to-right reads" "a - c" "13" [ ("a", "10"); ("c", "-3") ];
      check_eval "nested reads in order" "(a + g) * (c + 1)" "-34"
        [ ("a", "10"); ("g", "7"); ("c", "-3") ];
      check_eval "repeat reads repeat" "a + a" "20" [ ("a", "10"); ("a", "10") ];
      check_eval "unary" "-(a)" "-10" [ ("a", "10") ];
      check_eval "division truncates" "a / c" "-3" [ ("a", "10"); ("c", "-3") ];
      check_eval "mod sign" "c % 2" "-1" [ ("c", "-3") ];
      check_eval "array element" "arr[1]" "5" [ ("arr", "5") ];
      check_eval "index expression reads first" "arr[b + 1]" "5"
        [ ("b", "0"); ("arr", "5") ];
      (* short-circuit: the unevaluated side leaves no reads *)
      check_eval "and short-circuits" "b > 0 && a / b > 0" "0" [ ("b", "0") ];
      check_eval "and evaluates both when needed" "a > 0 && c < 0" "1"
        [ ("a", "10"); ("c", "-3") ];
      check_eval "or short-circuits" "a > 0 || a / b > 0" "1" [ ("a", "10") ];
      check_eval "or falls through" "b > 0 || c < 0" "1"
        [ ("b", "0"); ("c", "-3") ];
      check_eval "comparison chain via parens" "(a > b) == (c < b)" "1"
        [ ("a", "10"); ("b", "0"); ("c", "-3"); ("b", "0") ];
    ] )
