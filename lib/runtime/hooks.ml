type port = {
  read_var : pid:int -> Lang.Prog.var -> Value.t;
  now : unit -> int;
  seq_of : pid:int -> int;
}

type t = { on_event : pid:int -> seq:int -> Event.t -> unit; locals : bool }

type factory = port -> t

let nil _port = { on_event = (fun ~pid:_ ~seq:_ _ -> ()); locals = false }
