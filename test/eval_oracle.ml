(* The interpreter's former expression evaluator, kept as the oracle
   for {!Runtime.Interp.eval_int} and {!Runtime.Interp.eval_bool}: one
   recursive [eval] that boxes every sub-expression's result as an int
   or a bool and checks the box where a type is expected. The split
   evaluators must return the same values, record the same reads in the
   same order and raise the same faults. *)

module P = Lang.Prog
module I = Runtime.Interp
module Value = Runtime.Value
module Event = Runtime.Event

let fault fmt = Format.kasprintf (fun msg -> raise (I.Fault msg)) fmt

let read_scalar ctx (v : P.var) =
  match I.read_var ctx v with
  | Value.Vint n -> n
  | Value.Vundef -> fault "read of uninitialised variable '%s'" v.vname
  | Value.Varr _ -> fault "array '%s' used as a scalar" v.vname

let read_elem ctx (v : P.var) idx =
  match I.read_var ctx v with
  | Value.Varr a ->
    if idx < 0 || idx >= Array.length a then
      fault "index %d out of bounds for '%s' (length %d)" idx v.vname
        (Array.length a)
    else a.(idx)
  | Value.Vint _ | Value.Vundef -> fault "'%s' is not an array" v.vname

type ev = Ei of int | Eb of bool

let as_int = function
  | Ei n -> n
  | Eb _ -> fault "internal: boolean where integer expected"

let as_bool = function
  | Eb b -> b
  | Ei _ -> fault "internal: integer where boolean expected"

let rec eval ctx acc (e : P.expr) : ev =
  match e with
  | P.Eint n -> Ei n
  | P.Ebool b -> Eb b
  | P.Evar v ->
    let n = read_scalar ctx v in
    acc := { Event.var = v; value = Value.Vint n } :: !acc;
    Ei n
  | P.Eidx (v, ie) ->
    let idx = as_int (eval ctx acc ie) in
    let n = read_elem ctx v idx in
    acc := { Event.var = v; value = Value.Vint n } :: !acc;
    Ei n
  | P.Eunop (Lang.Ast.Neg, a) -> Ei (-as_int (eval ctx acc a))
  | P.Eunop (Lang.Ast.Not, a) -> Eb (not (as_bool (eval ctx acc a)))
  | P.Ebinop (op, a, b) -> (
    match op with
    | Lang.Ast.And ->
      if as_bool (eval ctx acc a) then Eb (as_bool (eval ctx acc b))
      else Eb false
    | Lang.Ast.Or ->
      if as_bool (eval ctx acc a) then Eb true
      else Eb (as_bool (eval ctx acc b))
    | Lang.Ast.Add -> arith ctx acc ( + ) a b
    | Lang.Ast.Sub -> arith ctx acc ( - ) a b
    | Lang.Ast.Mul -> arith ctx acc ( * ) a b
    | Lang.Ast.Div ->
      let x = as_int (eval ctx acc a) and y = as_int (eval ctx acc b) in
      if y = 0 then fault "division by zero" else Ei (x / y)
    | Lang.Ast.Mod ->
      let x = as_int (eval ctx acc a) and y = as_int (eval ctx acc b) in
      if y = 0 then fault "modulo by zero" else Ei (x mod y)
    | Lang.Ast.Lt -> cmp ctx acc ( < ) a b
    | Lang.Ast.Leq -> cmp ctx acc ( <= ) a b
    | Lang.Ast.Gt -> cmp ctx acc ( > ) a b
    | Lang.Ast.Geq -> cmp ctx acc ( >= ) a b
    | Lang.Ast.Eq -> equality ctx acc true a b
    | Lang.Ast.Neq -> equality ctx acc false a b)

and arith ctx acc op a b =
  let x = as_int (eval ctx acc a) in
  let y = as_int (eval ctx acc b) in
  Ei (op x y)

and cmp ctx acc op a b =
  let x = as_int (eval ctx acc a) in
  let y = as_int (eval ctx acc b) in
  Eb (op x y)

and equality ctx acc positive a b =
  let va = eval ctx acc a in
  let vb = eval ctx acc b in
  let same =
    match (va, vb) with
    | Ei x, Ei y -> x = y
    | Eb x, Eb y -> x = y
    | (Ei _ | Eb _), _ -> fault "'==' between int and bool"
  in
  Eb (if positive then same else not same)

let eval_int ctx e =
  let acc = ref [] in
  let n = as_int (eval ctx acc e) in
  (n, List.rev !acc)

let eval_bool ctx e =
  let acc = ref [] in
  let b = as_bool (eval ctx acc e) in
  (b, List.rev !acc)

(* What [print e] stores: a bool prints as 1 or 0. *)
let print_value ctx e =
  let acc = ref [] in
  let v =
    match eval ctx acc e with
    | Ei n -> Value.Vint n
    | Eb b -> Value.Vint (if b then 1 else 0)
  in
  (v, List.rev !acc)
