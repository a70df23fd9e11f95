(* Smoke test: every workload for a handful of ops on seed 1, and one
   traced run. Every answer must check out, every metric BENCHMARK.json
   declares must be reported with its unit, and the layers must account
   for the traced ops. *)

module W = E2e.Workload
module J = Serve.Json

let declared key =
  let text = In_channel.with_open_text "../../BENCHMARK.json" In_channel.input_all in
  let field name v = Option.get (J.member name v) in
  match J.parse text with
  | Ok v -> (
    match field key v with
    | J.List ms ->
      List.map
        (fun m -> (Option.get (J.to_str (field "name" m)), Option.get (J.to_str (field "unit" m))))
        ms
    | _ -> failwith (key ^ " is not a list"))
  | Error e -> failwith ("BENCHMARK.json: " ^ e)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt

let run label name ~trace ~expected =
  let cfg = { W.seed = 1; seconds = 60.; max_ops = 10; setups = 1; trace } in
  let r = W.run name cfg in
  if r.W.failed > 0 || not r.W.correct then
    fail "%s: %d of %d answers wrong" label r.W.failed r.W.attempted;
  let got = List.map (fun (m : W.metric) -> (m.W.m_name, m.W.m_unit)) r.W.metrics in
  List.iter
    (fun (n, u) ->
      match List.assoc_opt n got with
      | Some u' when u' = u -> ()
      | Some u' -> fail "%s: %s reported in %s, declared in %s" label n u' u
      | None -> fail "%s: metric %s missing" label n)
    expected;
  r

let () =
  let e2e = declared "end_to_end" and layers = declared "per_layer" in
  List.iter
    (fun (label, name) -> ignore (run label name ~trace:None ~expected:e2e))
    W.names;
  let trace = "smoke-trace.json" in
  let r = run "traced session-content" W.Session_content ~trace:(Some trace) ~expected:layers in
  Sys.remove trace;
  match List.find_opt (fun (m : W.metric) -> m.W.m_name = "bench.layer_coverage") r.W.metrics with
  | Some m when m.W.m_value >= 0.95 -> print_endline "smoke: ok"
  | Some m -> fail "layer coverage %.3f below 0.95" m.W.m_value
  | None -> fail "no layer coverage"
