let both f g port =
  let a = f port and b = g port in
  {
    Runtime.Hooks.on_event =
      (fun ~pid ~seq ev ->
        a.Runtime.Hooks.on_event ~pid ~seq ev;
        b.Runtime.Hooks.on_event ~pid ~seq ev);
    locals = a.locals || b.locals;
  }

let collect acc _port =
  {
    Runtime.Hooks.on_event = (fun ~pid ~seq ev -> acc := (pid, seq, ev) :: !acc);
    locals = true;
  }
