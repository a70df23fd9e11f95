(** An interactive command-driven debugger over a {!Session} — the
    user-facing loop the paper sketches in §3.2.3: the controller
    presents a portion of the dynamic graph rooted at the last executed
    statement, and the user asks for more dependences, expansion of
    sub-graph nodes, race reports, restored states or what-if
    experiments; each request triggers exactly the emulation it needs.

    The engine is a pure-ish command interpreter ([eval] maps a command
    line to its textual answer), so the same code backs the [ppd debug]
    CLI and the test suite. *)

type t

val create : Session.t -> t

val eval : t -> string -> string
(** Execute one command line and return the rendered answer. Unknown
    commands answer with the help text; a node or process id the run
    never produced answers one line naming it, and leaves the focus
    where it was. Commands:

    {v
    where                 the halt reason and the current focus node
    focus <node>          move the focus to a graph node id
    why [<node>]          immediate dependences of the focus (or node)
    slice [<depth>]       backward slice from the focus
    expand <node>         expand a sub-graph / loop node
    graph                 dump the dynamic graph built so far
    node <id>             show one node
    intervals [<pid>]     list log intervals
    log [<pid>]           dump the log entries
    races                 run race detection
    lint [<pass> ...]     static diagnostics with PPD0xx codes
    deadlock              wait-for analysis
    restore <step>        shared store reconstructed at a machine step
    whatif [p<pid>#<iv>] x=1 y=2   re-execute with overrides
    vars <name>           program-database report for an identifier
    stats                 controller statistics
    help                  this text
    v}

    [quit]/[exit] answer ["bye"]; the CLI wrapper stops on them. *)

val is_quit : string -> bool

val focus : t -> int option
(** The current focus node, initialised to the session's error node. *)
