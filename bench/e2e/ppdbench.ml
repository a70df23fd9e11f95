(* ppdbench: the end-to-end debugging-pipeline benchmark.

     ppdbench --workload NAME [--seed N] [--seconds S] [--trace 0|1|FILE]

   Prints every metric by name with its unit, then, as the last line, one
   JSON object {"correct", "attempted", "failed", "metrics"}. --trace 1
   (or a file name) is the traced run: per-layer metrics instead of the
   end-to-end ones, and a Chrome trace of the layer spans. *)

let usage () =
  prerr_endline
    "usage: ppdbench --workload \
     session-content|session-order|cold-open|record [--seed N] [--seconds \
     S] [--trace 0|1|FILE]";
  exit 2

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 30. in
  let trace = ref "0" in
  let rec parse = function
    | "--workload" :: w :: rest ->
      workload := List.assoc_opt w E2e.Workload.names;
      if !workload = None then usage ();
      parse rest
    | "--seed" :: n :: rest ->
      seed := int_of_string n;
      parse rest
    | "--seconds" :: s :: rest ->
      seconds := float_of_string s;
      parse rest
    | "--trace" :: t :: rest ->
      trace := t;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let name = match !workload with Some w -> w | None -> usage () in
  let wname = fst (List.find (fun (_, w) -> w = name) E2e.Workload.names) in
  let trace =
    match !trace with
    | "0" -> None
    | "1" -> Some (Printf.sprintf ".ppdbench/trace-%s-%d.json" wname !seed)
    | file -> Some file
  in
  let r =
    E2e.Workload.run name
      { seed = !seed; seconds = !seconds; max_ops = max_int; setups = 5; trace }
  in
  List.iter
    (fun (m : E2e.Workload.metric) ->
      Printf.printf "%-30s %14.4f %s\n" m.m_name m.m_value m.m_unit)
    r.metrics;
  Printf.printf "%s: %d timed ops, %d of %d checked answers wrong%s\n" wname
    r.samples r.failed r.attempted
    (match trace with Some f -> ", trace in " ^ f | None -> "");
  Option.iter
    (Printf.printf
       "machine speed: the calibration loop ran %.4fx its nominal time; timings above are divided by that, rates multiplied\n")
    r.speed;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (m : E2e.Workload.metric) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.m_name
              (json_number m.m_value) m.m_unit)
          r.metrics));
  (* the layers must account for the real ops' time *)
  match List.find_opt (fun (m : E2e.Workload.metric) -> m.m_name = "bench.layer_coverage") r.metrics with
  | Some m when m.m_value < 0.95 ->
    Printf.eprintf "ppdbench: layer coverage %.3f is below 0.95\n" m.m_value;
    exit 1
  | _ -> ()
