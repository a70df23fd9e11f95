module P = Lang.Prog

exception Fault of string

let fault fmt = Format.kasprintf (fun msg -> raise (Fault msg)) fmt

type frame = {
  ffid : int;
  slots : Value.t array;
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
