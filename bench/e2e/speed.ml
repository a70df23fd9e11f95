(* The machine's own speed, so the timings of runs made at different
   moments can be compared.

   The host this benchmark runs on is shared: whole minutes of runs go
   10-50% slower, every timing of a run moving with the others, and no
   median inside a run can absorb a slow minute. So a run also times a
   fixed loop between its ops, and its timings are scaled by how much
   slower or faster than [nominal_ns] that loop ran. The loop allocates
   the way the debugger does (short-lived lists, folded into a table
   whose entries survive), so the memory and collector contention that
   slows the debugger slows it too. It uses no code of the program. *)

type t = { mutable samples : int list }

let create () = { samples = [] }

(* The loop's time on the machine the baselines were measured on. *)
let nominal_ns = 2_000_000

let loop () =
  let tbl = Hashtbl.create 16 in
  let acc = ref 0 in
  for i = 0 to 20_000 do
    let l = List.init 8 (fun j -> i * j) in
    acc := !acc + List.fold_left ( + ) 0 l;
    Hashtbl.replace tbl (i land 1023) !acc
  done;
  ignore (Sys.opaque_identity !acc)

(* One sample: the best of five loops, so a preemption inside one loop
   does not count. *)
let sample t =
  let once () =
    let t0 = Obs.now_ns () in
    loop ();
    Obs.now_ns () - t0
  in
  t.samples <- List.fold_left min max_int (List.init 5 (fun _ -> once ())) :: t.samples

(* How much slower than nominal the machine ran: the median sample over
   [nominal_ns]; 1 without samples. A time is divided by it, a rate
   multiplied. *)
let factor t =
  match List.sort compare t.samples with
  | [] -> 1.
  | s -> float_of_int (List.nth s (List.length s / 2)) /. float_of_int nominal_ns
