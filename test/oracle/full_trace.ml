type rec_ = { tr_pid : int; tr_seq : int; tr_step : int; tr_ev : Runtime.Event.t }

type t = { recs : rec_ array }

type state = { mutable acc : rec_ list }

let create () = { acc = [] }

let factory st (port : Runtime.Hooks.port) =
  {
    Runtime.Hooks.on_event =
      (fun ~pid ~seq ev ->
        st.acc <-
          { tr_pid = pid; tr_seq = seq; tr_step = port.now (); tr_ev = ev }
          :: st.acc);
    locals = true;
  }

let finish st = { recs = Array.of_list (List.rev st.acc) }

let nevents t = Array.length t.recs
