type port = {
  read_var : pid:int -> Lang.Prog.var -> Value.t;
  now : unit -> int;
  seq_of : pid:int -> int;
}

type t = { on_event : pid:int -> seq:int -> Event.t -> unit; locals : bool }

type factory = port -> t

let nil _port = { on_event = (fun ~pid:_ ~seq:_ _ -> ()); locals = false }

let both f g port =
  let a = f port and b = g port in
  {
    on_event =
      (fun ~pid ~seq ev ->
        a.on_event ~pid ~seq ev;
        b.on_event ~pid ~seq ev);
    locals = a.locals || b.locals;
  }

let collect acc _port =
  {
    on_event = (fun ~pid ~seq ev -> acc := (pid, seq, ev) :: !acc);
    locals = true;
  }
