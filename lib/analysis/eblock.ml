module P = Lang.Prog

type policy = { leaf_inline_max_stmts : int; loop_block_min_body : int }

let default_policy = { leaf_inline_max_stmts = 0; loop_block_min_body = 0 }

type t = {
  prog : P.t;
  policy : policy;
  loop_blocks : (int, P.var list * P.var list) Hashtbl.t;
      (* loop sid -> (prelog vars, postlog vars) *)
  summary : Interproc.t;
  callgraph : Callgraph.t;
  cfgs : Cfg.t array;
  mhp : Mhp.t;
  simplified : Simplified.t array;
  is_eblock : bool array;
  used : Varset.t array;
  defined : Varset.t array;
  prelog_vars : P.var list array;
  postlog_vars : P.var list array;
  code : Lang.Bytecode.prog;
}

let stmt_count (f : P.func) =
  let n = ref 0 in
  P.iter_stmts (fun _ -> incr n) f.body;
  !n

let sort_vars vs =
  List.sort_uniq (fun (a : P.var) b -> Int.compare a.vid b.vid) vs

let analyze ?(policy = default_policy) ?(prune_sync_prelogs = true) ?mhp
    (p : P.t) =
  let nf = Array.length p.funcs in
  let summary = Interproc.compute p in
  let cg = Callgraph.compute p in
  let cfgs = Array.map (fun f -> Cfg.build p f) p.funcs in
  let mhp = match mhp with Some m -> m | None -> Mhp.compute ~cfgs p in
  (* Sync-unit prelogs only need shared reads some unordered foreign
     write can feed; everything else replays correctly from the e-block
     entry prelog plus sequential re-execution (see Mhp.prelog_required). *)
  let keep =
    if prune_sync_prelogs then fun ~read_sid (v : P.var) ->
      Mhp.prelog_required mhp ~read_sid ~vid:v.vid
    else fun ~read_sid:_ _ -> true
  in
  let simplified = Array.map (fun cfg -> Simplified.build ~keep p cfg) cfgs in
  (* Spawned functions must be e-blocks. *)
  let spawned = Array.make nf false in
  Array.iter (List.iter (fun g -> spawned.(g) <- true)) cg.Callgraph.spawns;
  let is_eblock =
    Array.init nf (fun fid ->
        let f = p.funcs.(fid) in
        fid = p.main_fid || spawned.(fid)
        || not
             (Callgraph.is_leaf cg fid
             && stmt_count f <= policy.leaf_inline_max_stmts))
  in
  (* Effects a call to [g] contributes to the calling block: nothing if
     [g] is its own e-block (its logs cover it during emulation), its
     global reads/writes if inlined. Inlined functions are leaves, so no
     recursion is needed. *)
  let call_uses g = if is_eblock.(g) then [] else Interproc.gref_vars p summary g in
  let call_defs g = if is_eblock.(g) then [] else Interproc.gmod_vars p summary g in
  let used = Array.make nf (Varset.empty p.nvars) in
  let defined = Array.make nf (Varset.empty p.nvars) in
  let prelog_vars = Array.make nf [] in
  let postlog_vars = Array.make nf [] in
  for fid = 0 to nf - 1 do
    let f = p.funcs.(fid) in
    let own filter vars =
      List.filter
        (fun (v : P.var) -> P.is_global v || (filter && v.vfid = fid))
        vars
    in
    (* USED: every read of own frame or globals, plus inlined callees'
       global reads (call sites contribute via Use_def + call_uses). *)
    let direct_u = ref [] and direct_d = ref [] in
    P.iter_stmts
      (fun s ->
        direct_u := Use_def.direct_uses s @ !direct_u;
        direct_d := Use_def.direct_defs s @ !direct_d;
        match s.desc with
        | P.Scall (_, c) ->
          direct_u := call_uses c.callee @ !direct_u;
          direct_d := call_defs c.callee @ !direct_d
        | _ -> ())
      f.body;
    used.(fid) <- Varset.vars p.nvars (own true !direct_u);
    defined.(fid) <- Varset.vars p.nvars (own true !direct_d);
    if is_eblock.(fid) then begin
      let ue = Live.upward_exposed ~call_uses ~call_defs p cfgs.(fid) in
      let entry_vids = Varset.elements ue.Live.at_entry in
      prelog_vars.(fid) <-
        sort_vars
          (own true (List.map (fun vid -> p.vars.(vid)) entry_vids));
      postlog_vars.(fid) <-
        sort_vars
          (List.map (fun vid -> p.vars.(vid)) (Varset.elements defined.(fid)))
    end
  done;
  (* §5.4 loop e-blocks: loops whose region is large enough get their
     own prelog/postlog variable sets (conservative: everything the
     region may read / write in the enclosing frame or the globals). *)
  let loop_blocks = Hashtbl.create 8 in
  if policy.loop_block_min_body > 0 then
    Array.iter
      (fun (f : P.func) ->
        P.iter_stmts
          (fun s ->
            match s.desc with
            | P.Swhile _ ->
              let size = ref 0 in
              P.iter_stmts (fun _ -> incr size) [ s ];
              if !size >= policy.loop_block_min_body then begin
                let reads = ref [] and writes = ref [] in
                P.iter_stmts
                  (fun r ->
                    reads := Use_def.direct_uses r @ !reads;
                    writes := Use_def.direct_defs r @ !writes;
                    match r.desc with
                    | P.Scall (_, c) ->
                      reads := call_uses c.callee @ !reads;
                      writes := call_defs c.callee @ !writes
                    | _ -> ())
                  [ s ];
                let own vars =
                  sort_vars
                    (List.filter
                       (fun (v : P.var) -> P.is_global v || v.vfid = f.fid)
                       vars)
                in
                Hashtbl.replace loop_blocks s.sid (own !reads, own !writes)
              end
            | _ -> ())
          f.body)
      p.funcs;
  {
    prog = p;
    policy;
    loop_blocks;
    summary;
    callgraph = cg;
    cfgs;
    mhp;
    simplified;
    is_eblock;
    used;
    defined;
    prelog_vars;
    postlog_vars;
    code = Lang.Bytecode.plan p;
  }

let loop_block_vars t ~sid = Hashtbl.find_opt t.loop_blocks sid

let is_loop_block t ~sid = Hashtbl.mem t.loop_blocks sid

let sync_prelog_vars_after t ~fid ~sid =
  match Simplified.shared_reads_after t.simplified.(fid) sid with
  | None -> []
  | Some set ->
    List.map (fun vid -> t.prog.vars.(vid)) (Varset.elements set)

let sync_prelog_vars_at_entry t ~fid =
  let set = Simplified.shared_reads_at_entry t.simplified.(fid) in
  List.map (fun vid -> t.prog.vars.(vid)) (Varset.elements set)

let pp_summary ppf t =
  Format.fprintf ppf "@[<v>e-blocks (leaf_inline_max_stmts=%d):"
    t.policy.leaf_inline_max_stmts;
  Array.iter
    (fun (f : P.func) ->
      Format.fprintf ppf "@,  %-12s %s prelog=%d postlog=%d" f.fname
        (if t.is_eblock.(f.fid) then "e-block" else "inlined")
        (List.length t.prelog_vars.(f.fid))
        (List.length t.postlog_vars.(f.fid)))
    t.prog.funcs;
  Format.fprintf ppf "@]"
