module P = Lang.Prog

exception Fault of string

let fault fmt = Format.kasprintf (fun msg -> raise (Fault msg)) fmt

type work = Wstmt of P.stmt | Wloop of P.stmt

type frame = {
  ffid : int;
  slots : Value.t array;
  mutable work : work list;
  mutable active_loops : int list;  (* sids of loops being executed, innermost first *)
  ret_lhs : P.lhs option;
  call_sid : int option;
}

type ctx = {
  prog : P.t;
  read_global : int -> Value.t;
  write_global : int -> Value.t -> unit;
  frame : frame;
}

let make_frame (p : P.t) ~fid ~args ~ret_lhs ~call_sid =
  let f = p.funcs.(fid) in
  let slots = Array.make f.nslots Value.Vundef in
  List.iter
    (fun (v : P.var) ->
      match (v.vscope, v.vty) with
      | P.Local slot, P.Tarr n -> slots.(slot) <- Value.Varr (Array.make n 0)
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
   with Invalid_argument _ -> fault "arity mismatch calling %s" f.fname);
  let work = List.map (fun s -> Wstmt s) f.body in
  { ffid = fid; slots; work; active_loops = []; ret_lhs; call_sid }

let binds_of_frame (p : P.t) frame =
  let f = p.funcs.(frame.ffid) in
  List.map
    (fun (v : P.var) ->
      match v.vscope with
      | P.Local slot -> (v, frame.slots.(slot))
      | P.Global _ -> assert false)
    f.params

let read_var ctx (v : P.var) =
  match v.vscope with
  | P.Global slot -> ctx.read_global slot
  | P.Local slot ->
    if v.vfid <> ctx.frame.ffid then
      fault "internal: read of %s outside its frame" v.vname
    else ctx.frame.slots.(slot)

let write_var ctx (v : P.var) value =
  match v.vscope with
  | P.Global slot -> ctx.write_global slot value
  | P.Local slot ->
    if v.vfid <> ctx.frame.ffid then
      fault "internal: write of %s outside its frame" v.vname
    else ctx.frame.slots.(slot) <- value

let read_scalar ctx (v : P.var) =
  match read_var ctx v with
  | Value.Vint n -> n
  | Value.Vundef -> fault "read of uninitialised variable '%s'" v.vname
  | Value.Varr _ -> fault "array '%s' used as a scalar" v.vname

let read_elem ctx (v : P.var) idx =
  match read_var ctx v with
  | Value.Varr a ->
    if idx < 0 || idx >= Array.length a then
      fault "index %d out of bounds for '%s' (length %d)" idx v.vname
        (Array.length a)
    else a.(idx)
  | Value.Vint _ | Value.Vundef -> fault "'%s' is not an array" v.vname

(* An expression's value is an int or a bool, fixed by its head
   constructor, so one evaluator per result type needs no boxed
   intermediate. Reads accumulate onto [acc] in reverse, in evaluation
   order, short-circuit aware. An operand of the wrong type (the
   typechecker rejects one, so only a hand-built tree has it) is still
   evaluated in full, its reads recorded and its faults raised, before
   the type fault. *)
let is_bool_expr (e : P.expr) =
  match e with
  | P.Ebool _ | P.Eunop (Lang.Ast.Not, _) -> true
  | P.Ebinop
      ((Lang.Ast.Add | Lang.Ast.Sub | Lang.Ast.Mul | Lang.Ast.Div | Lang.Ast.Mod), _, _)
    ->
    false
  | P.Ebinop _ -> true
  | P.Eint _ | P.Evar _ | P.Eidx _ | P.Eunop (Lang.Ast.Neg, _) -> false

let rec eval_i ctx acc (e : P.expr) : int =
  match e with
  | P.Eint n -> n
  | P.Evar v ->
    let n = read_scalar ctx v in
    acc := { Event.var = v; value = Value.Vint n } :: !acc;
    n
  | P.Eidx (v, ie) ->
    let idx = eval_i ctx acc ie in
    let n = read_elem ctx v idx in
    acc := { Event.var = v; value = Value.Vint n } :: !acc;
    n
  | P.Eunop (Lang.Ast.Neg, a) -> -eval_i ctx acc a
  | P.Ebinop (Lang.Ast.Add, a, b) ->
    let x = eval_i ctx acc a in
    x + eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Sub, a, b) ->
    let x = eval_i ctx acc a in
    x - eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Mul, a, b) ->
    let x = eval_i ctx acc a in
    x * eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Div, a, b) ->
    let x = eval_i ctx acc a in
    let y = eval_i ctx acc b in
    if y = 0 then fault "division by zero" else x / y
  | P.Ebinop (Lang.Ast.Mod, a, b) ->
    let x = eval_i ctx acc a in
    let y = eval_i ctx acc b in
    if y = 0 then fault "modulo by zero" else x mod y
  | P.Ebool _ | P.Eunop (Lang.Ast.Not, _) | P.Ebinop _ ->
    ignore (eval_b ctx acc e : bool);
    fault "internal: boolean where integer expected"

and eval_b ctx acc (e : P.expr) : bool =
  match e with
  | P.Ebool b -> b
  | P.Eunop (Lang.Ast.Not, a) -> not (eval_b ctx acc a)
  | P.Ebinop (Lang.Ast.And, a, b) -> eval_b ctx acc a && eval_b ctx acc b
  | P.Ebinop (Lang.Ast.Or, a, b) -> eval_b ctx acc a || eval_b ctx acc b
  | P.Ebinop (Lang.Ast.Lt, a, b) ->
    let x = eval_i ctx acc a in
    x < eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Leq, a, b) ->
    let x = eval_i ctx acc a in
    x <= eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Gt, a, b) ->
    let x = eval_i ctx acc a in
    x > eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Geq, a, b) ->
    let x = eval_i ctx acc a in
    x >= eval_i ctx acc b
  | P.Ebinop (Lang.Ast.Eq, a, b) -> equality ctx acc a b
  | P.Ebinop (Lang.Ast.Neq, a, b) -> not (equality ctx acc a b)
  | P.Eint _ | P.Evar _ | P.Eidx _ | P.Eunop (Lang.Ast.Neg, _) | P.Ebinop _ ->
    ignore (eval_i ctx acc e : int);
    fault "internal: integer where boolean expected"

(* Both operands are evaluated, in order, before the types are
   compared. *)
and equality ctx acc a b =
  match (is_bool_expr a, is_bool_expr b) with
  | false, false ->
    let x = eval_i ctx acc a in
    x = eval_i ctx acc b
  | true, true ->
    let x = eval_b ctx acc a in
    Bool.equal x (eval_b ctx acc b)
  | true, false ->
    ignore (eval_b ctx acc a : bool);
    ignore (eval_i ctx acc b : int);
    fault "'==' between int and bool"
  | false, true ->
    ignore (eval_i ctx acc a : int);
    ignore (eval_b ctx acc b : bool);
    fault "'==' between int and bool"

let eval_int ctx e =
  let acc = ref [] in
  let n = eval_i ctx acc e in
  (n, List.rev !acc)

let eval_bool ctx e =
  let acc = ref [] in
  let b = eval_b ctx acc e in
  (b, List.rev !acc)

let write_lhs ctx (l : P.lhs) value =
  match l with
  | P.Lvar v ->
    write_var ctx v value;
    ([], { Event.var = v; value })
  | P.Lidx (v, ie) -> (
    let acc = ref [] in
    let idx = eval_i ctx acc ie in
    match read_var ctx v with
    | Value.Varr a ->
      if idx < 0 || idx >= Array.length a then
        fault "index %d out of bounds for '%s' (length %d)" idx v.vname
          (Array.length a)
      else begin
        let n =
          match value with
          | Value.Vint n -> n
          | Value.Vundef -> fault "storing missing value into array '%s'" v.vname
          | Value.Varr _ -> fault "storing array into array '%s'" v.vname
        in
        (* an element write is a read-modify-write of the whole array
           under the array-as-scalar abstraction: record the read *)
        acc := { Event.var = v; value = Value.Vint a.(idx) } :: !acc;
        (* For globals, write back through the context so overlay stores
           (copy-on-write emulation) observe the mutation. *)
        (match v.vscope with
        | P.Global slot ->
          a.(idx) <- n;
          ctx.write_global slot (Value.Varr a)
        | P.Local _ -> a.(idx) <- n);
        (List.rev !acc, { Event.var = v; value = Value.Vint n })
      end
    | Value.Vint _ | Value.Vundef -> fault "'%s' is not an array" v.vname)

let consume_work frame =
  match frame.work with
  | [] -> invalid_arg "Interp.consume_work: empty work list"
  | _ :: rest -> frame.work <- rest

type local_result =
  | Event of Event.stmt_event
  | Driver of P.stmt
  | Frame_done

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
    frame.active_loops <- s.sid :: frame.active_loops
  | _ -> invalid_arg "Interp.loop_entry: head is not the loop statement"

let loop_test ctx (s : P.stmt) =
  match (ctx.frame.work, s.P.desc) with
  | Wloop s' :: rest, P.Swhile (cond, body) when s' == s ->
    let b, reads = eval_bool ctx cond in
    ctx.frame.work <- rest;
    if b then begin
      ctx.frame.work <- Wloop s :: ctx.frame.work;
      push_stmts ctx.frame body
    end
    else
      ctx.frame.active_loops <-
        (match ctx.frame.active_loops with
        | l :: ls when l = s.sid -> ls
        | ls -> ls);
    ({ Event.sid = s.sid; reads; write = None; kind = Event.K_pred b }, b)
  | _ -> invalid_arg "Interp.loop_test: head is not the loop retest"

let step_local ctx =
  let frame = ctx.frame in
  match frame.work with
  | [] -> Frame_done
  | Wloop s :: _ -> Driver s
  | Wstmt s :: rest -> (
    match s.P.desc with
    | P.Sassign (l, e) ->
      let n, reads = eval_int ctx e in
      let idx_reads, write = write_lhs ctx l (Value.Vint n) in
      frame.work <- rest;
      Event
        {
          Event.sid = s.sid;
          reads = (match idx_reads with [] -> reads | _ -> reads @ idx_reads);
          write = Some write;
          kind = Event.K_assign;
        }
    | P.Sif (cond, then_, else_) ->
      let b, reads = eval_bool ctx cond in
      frame.work <- rest;
      push_stmts frame (if b then then_ else else_);
      Event { Event.sid = s.sid; reads; write = None; kind = Event.K_pred b }
    | P.Swhile _ -> Driver s
    | P.Sprint e ->
      let acc = ref [] in
      let v =
        if is_bool_expr e then Value.Vint (if eval_b ctx acc e then 1 else 0)
        else Value.Vint (eval_i ctx acc e)
      in
      let reads = List.rev !acc in
      frame.work <- rest;
      Event
        { Event.sid = s.sid; reads; write = None; kind = Event.K_print { value = v } }
    | P.Sassert e ->
      let ok, reads = eval_bool ctx e in
      frame.work <- rest;
      Event
        { Event.sid = s.sid; reads; write = None; kind = Event.K_assert { ok } }
    | P.Scall _ | P.Sspawn _ | P.Sjoin _ | P.Sreturn _ | P.Sp _ | P.Sv _
    | P.Ssend _ | P.Srecv _ ->
      Driver s)
