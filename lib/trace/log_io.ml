let magic = "PPDLOG1\n"

exception Unreadable of { path : string; reason : string }

let unreadable path fmt =
  Printf.ksprintf (fun reason -> raise (Unreadable { path; reason })) fmt

let ppd050 ~path ~reason =
  {
    Lang.Diag.d_code = "PPD050";
    d_severity = Lang.Diag.Sev_error;
    d_loc = Lang.Loc.none;
    d_message = Printf.sprintf "unreadable log %s: %s" path reason;
    d_related = [];
  }

(* The v1 payload: a whole log's fields without [base], which is all
   zeros there — the five-field record this format has always held. *)
type payload =
  int * Log.entry array array * int array * Log.tier * Log.ckpt array

let payload (log : Log.t) : payload =
  (log.nprocs, log.entries, log.stops, log.tier, log.ckpts)

let save path (log : Log.t) =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc magic;
      Marshal.to_channel oc (payload log) [])

let load path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let hdr =
        try really_input_string ic (String.length magic)
        with End_of_file ->
          unreadable path "file shorter than the 8-byte magic"
      in
      if not (String.equal hdr magic) then
        if String.length hdr >= 6 && String.equal (String.sub hdr 0 6) "PPDLOG"
        then
          unreadable path "unsupported log format version '%c' (this build reads v1 and v2)"
            hdr.[6]
        else unreadable path "not a PPD log file (bad magic)";
      (* Marshal's failure mode depends on *where* the bytes are bad:
         truncation raises End_of_file or Failure, but garbage can also
         surface as Invalid_argument and friends. All of them mean the
         same thing to a caller: PPD050. *)
      try
        let nprocs, entries, stops, tier, ckpts =
          (Marshal.from_channel ic : payload)
        in
        { Log.nprocs; entries; stops; tier; ckpts; base = Array.make nprocs 0 }
      with _ -> unreadable path "truncated or corrupt v1 marshal payload")

let save_per_process ~dir ~basename (log : Log.t) =
  Array.to_list
    (Array.mapi
       (fun pid entries ->
         let path = Filename.concat dir (Printf.sprintf "%s.%d.log" basename pid) in
         let one =
           {
             log with
             Log.nprocs = 1;
             entries = [| entries |];
             stops = [| log.Log.stops.(pid) |];
             base = [| 0 |];
           }
         in
         save path one;
         path)
       log.Log.entries)

(* Honest persisted sizes: what [save] actually writes, magic included
   (the bench log-size columns and `ppd log` report these). *)
let measure (log : Log.t) =
  String.length magic + String.length (Marshal.to_string (payload log) [])

let measure_trace (tr : Full_trace.t) =
  String.length magic + String.length (Marshal.to_string tr [])
