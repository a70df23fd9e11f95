module P = Lang.Prog
module E = Runtime.Event
module V = Runtime.Value
module I = Runtime.Interp

type work = Wstmt of P.stmt | Wloop of P.stmt

type frame = { fr : I.frame; mutable work : work list }

let make_frame (p : P.t) ~fid ~args ~ret_lhs ~call_sid =
  let f = p.funcs.(fid) in
  let slots = Array.make f.nslots V.Vundef in
  List.iter
    (fun (v : P.var) ->
      match (v.vscope, v.vty) with
      | P.Local slot, P.Tarr n -> slots.(slot) <- V.Varr (Array.make n 0)
      | P.Local _, P.Tint -> ()
      | P.Global _, _ -> assert false)
    f.locals;
  (try
     List.iter2
       (fun (v : P.var) arg ->
         match v.vscope with
         | P.Local slot -> slots.(slot) <- arg
         | P.Global _ -> assert false)
       f.params args
   with Invalid_argument _ ->
     raise (I.Fault (Printf.sprintf "arity mismatch calling %s" f.fname)));
  let work = List.map (fun s -> Wstmt s) f.body in
  {
    fr = { I.ffid = fid; slots; active_loops = []; ret_lhs; call_sid };
    work;
  }

let consume_work frame =
  match frame.work with
  | [] -> invalid_arg "Ast_step.consume_work: empty work list"
  | _ :: rest -> frame.work <- rest

type local_result = Event of E.stmt_event | Driver of P.stmt | Frame_done

let rec prepend_stmts stmts work =
  match stmts with
  | [] -> work
  | s :: rest -> Wstmt s :: prepend_stmts rest work

let push_stmts frame stmts = frame.work <- prepend_stmts stmts frame.work

(* Loop handling is driver-side so the drivers can emit the §5.4 loop
   e-block boundary events. [loop_entry] converts the head [Wstmt] of a
   while statement into its [Wloop] retest form; [loop_test] performs
   one condition test, entering the body or leaving the loop. *)
let loop_entry frame (s : P.stmt) =
  match frame.work with
  | Wstmt s' :: rest when s' == s ->
    frame.work <- Wloop s :: rest;
    frame.fr.I.active_loops <- s.sid :: frame.fr.I.active_loops
  | _ -> invalid_arg "Ast_step.loop_entry: head is not the loop statement"

let loop_test ctx frame (s : P.stmt) =
  match (frame.work, s.P.desc) with
  | Wloop s' :: rest, P.Swhile (cond, body) when s' == s ->
    let b, reads = I.eval_bool ctx cond in
    frame.work <- rest;
    if b then begin
      frame.work <- Wloop s :: frame.work;
      push_stmts frame body
    end
    else
      frame.fr.I.active_loops <-
        (match frame.fr.I.active_loops with
        | l :: ls when l = s.sid -> ls
        | ls -> ls);
    ({ E.sid = s.sid; reads; write = None; kind = E.K_pred b }, b)
  | _ -> invalid_arg "Ast_step.loop_test: head is not the loop retest"

(* An expression's type is fixed by its head constructor. *)
let is_bool_expr (e : P.expr) =
  match e with
  | P.Ebool _ | P.Eunop (Lang.Ast.Not, _) -> true
  | P.Ebinop
      ((Lang.Ast.Add | Lang.Ast.Sub | Lang.Ast.Mul | Lang.Ast.Div | Lang.Ast.Mod), _, _)
    ->
    false
  | P.Ebinop _ -> true
  | P.Eint _ | P.Evar _ | P.Eidx _ | P.Eunop (Lang.Ast.Neg, _) -> false

let step_local ctx frame =
  match frame.work with
  | [] -> Frame_done
  | Wloop s :: _ -> Driver s
  | Wstmt s :: rest -> (
    match s.P.desc with
    | P.Sassign (l, e) ->
      let n, reads = I.eval_int ctx e in
      let idx_reads, write = I.write_lhs ctx l (V.Vint n) in
      frame.work <- rest;
      Event
        {
          E.sid = s.sid;
          reads = (match idx_reads with [] -> reads | _ -> reads @ idx_reads);
          write = Some write;
          kind = E.K_assign;
        }
    | P.Sif (cond, then_, else_) ->
      let b, reads = I.eval_bool ctx cond in
      frame.work <- rest;
      push_stmts frame (if b then then_ else else_);
      Event { E.sid = s.sid; reads; write = None; kind = E.K_pred b }
    | P.Swhile _ -> Driver s
    | P.Sprint e ->
      let v, reads =
        if is_bool_expr e then
          let b, reads = I.eval_bool ctx e in
          (V.Vint (if b then 1 else 0), reads)
        else
          let n, reads = I.eval_int ctx e in
          (V.Vint n, reads)
      in
      frame.work <- rest;
      Event { E.sid = s.sid; reads; write = None; kind = E.K_print { value = v } }
    | P.Sassert e ->
      let ok, reads = I.eval_bool ctx e in
      frame.work <- rest;
      Event { E.sid = s.sid; reads; write = None; kind = E.K_assert { ok } }
    | P.Scall _ | P.Sspawn _ | P.Sjoin _ | P.Sreturn _ | P.Sp _ | P.Sv _
    | P.Ssend _ | P.Srecv _ ->
      Driver s)
