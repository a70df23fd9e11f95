type rec_ = { tr_pid : int; tr_seq : int; tr_step : int; tr_ev : Runtime.Event.t }

type t = { recs : rec_ array }

type state = {
  mutable acc : rec_ list;
  mutable n : int;
  mutable port : Runtime.Hooks.port option;
}

let create () = { acc = []; n = 0; port = None }

let factory st port =
  st.port <- Some port;
  {
    Runtime.Hooks.on_event =
      (fun ~pid ~seq ev ->
        let step =
          match st.port with
          | None -> 0
          | Some p -> p.Runtime.Hooks.now ()
        in
        st.acc <- { tr_pid = pid; tr_seq = seq; tr_step = step; tr_ev = ev } :: st.acc;
        st.n <- st.n + 1);
    locals = true;
  }

let finish st = { recs = Array.of_list (List.rev st.acc) }

let nevents t = Array.length t.recs

let slice t ~pid ~lo ~hi =
  Array.to_list t.recs
  |> List.filter_map (fun r ->
         if
           r.tr_pid = pid && r.tr_seq >= lo
           && match hi with None -> true | Some h -> r.tr_seq < h
         then Some r.tr_ev
         else None)

let run_traced ?sched ?max_steps prog =
  let st = create () in
  let m = Runtime.Machine.create ?sched ?max_steps ~hooks:(factory st) prog in
  let halt = Runtime.Machine.run m in
  (halt, finish st, m)
