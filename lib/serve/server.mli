(** The `ppd serve` daemon core (DESIGN §14, §17): a registry of opened
    logs, per-connection sessions, and the JSON-RPC dispatcher —
    independent of any transport, so tests and the T13/T17 benches
    drive {!handle_line} in-process while the CLI wires it to
    stdin/stdout ([--rpc]) or a socket.

    Sharing model: all sessions share one {!Exec.Pool}, and all
    handles on the same (log, program, policy) share one segment
    reader (its page LRU) and one {!Ppd.Fragcache}. Each request gets
    a {e fresh} controller, so its graph, statistics and degraded-mode
    holes are private: answers are byte-identical to the one-shot CLI,
    and an injected fault degrades only the request it hit.

    Survivability: heavy requests carry a deadline (per-request
    [deadlineMs], else [default_deadline_ms]) answered as PPD090 when
    it expires in the gate queue or at an e-block replay boundary;
    transient replay faults retry under the controller's retry budget
    with jittered backoff; repeated hard faults (PPD050, PPD061,
    PPD062, PPD086) on one log trip a per-log circuit breaker that
    fast-fails PPD091 until a cooldown probe succeeds; all caches share
    the [mem_budget] byte ceiling; and with a journal attached the
    session table survives SIGKILL — [--resume] rebuilds it and clients
    [attach], stale handles answering PPD092. *)

type config = {
  jobs : int;
      (** size of the pool replay requests share across sessions;
          1 = serial *)
  max_active : int;  (** heavy requests executing at once *)
  max_queue : int;  (** heavy requests waiting; beyond this, PPD084 *)
  max_open_logs : int;  (** per-session open handles; beyond, PPD085 *)
  step_quota : int;
      (** per-session lifetime replay-step budget; at/beyond, heavy
          requests get PPD085 *)
  default_deadline_ms : int;
      (** deadline for heavy requests that carry no [deadlineMs];
          [0] (the default) means none *)
  mem_budget : int;
      (** daemon-wide byte ceiling shared by every page LRU and
          fragment cache; [0] (the default) means unlimited *)
  breaker : Resil.Breaker.config;
      (** per-log circuit breaker thresholds *)
}

val default_config : config

type t

type session

val create : ?config:config -> ?journal:string -> ?resume:string -> unit -> t
(** [journal] appends every session-table mutation to the path
    (truncating any previous file — flushed per record, so SIGKILL
    loses at most the torn tail). [resume] replays a journal left by a
    killed daemon first, making its sessions available to [attach],
    and implies journaling back to the same path (a [journal] argument
    is then ignored). *)

val config : t -> config

val shutdown : t -> unit
(** Join the shared pool and close the journal (idempotent). *)

val session : t -> session
(** Register a new session (one per connection). *)

val session_id : session -> int

val end_session : t -> session -> unit
(** Drop the session's remaining handles (refcounts fall; a log leaves
    the registry with its last handle and its caches leave the byte
    budget). Idempotent. *)

val methods : string list
(** Every method name, in the order the PPD081 answer lists them: one
    per {!Query.table} row among the registry, analysis and inspection
    methods. *)

val handle_line : t -> session -> string -> string
(** One protocol round-trip: parse the request line, dispatch, and
    return the response line (no trailing newline). Never raises —
    malformed input and failed methods become error responses. *)

val run_stdio : t -> unit
(** The [--rpc] mode: serve one session over stdin/stdout until EOF.
    Responses are flushed per line, so a cram test (or a pipe) can
    drive the protocol without sockets. *)

val run_unix : stop:bool Atomic.t -> t -> path:string -> unit
(** Listen on a unix-domain socket, one thread per connection, until
    [stop] is set (the CLI sets it from SIGTERM/SIGINT). On stop:
    stops accepting, shuts down live connections (clients see EOF),
    joins their threads, removes the socket file, and joins the pool.
    Raises [Unix.Unix_error] if the socket cannot be bound. *)

val run_tcp : stop:bool Atomic.t -> t -> port:int -> unit
(** Same, on a TCP port (loopback). *)
