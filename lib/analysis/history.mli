open Core

(** Black-box histories in the Biswas–Enea sense ("On the Complexity of
    Checking Transactional Consistency", PAPERS.md): {e sessions} of
    transactions, each transaction a sequence of read/write events on
    named variables carrying abstract {e values}. Values are what makes
    the history checkable without any scheduler cooperation — every
    write puts a globally unique value, so the writes-to-reads
    ({e reads-from}) relation is recoverable from the recorded values
    alone, and the {!Checker} decides isolation levels from that
    relation plus the session order.

    Histories come from three places: directly from a
    {!Core.Schedule.t} of a syntax ({!of_schedule} — each atomic RMW
    step expands to a read of the variable's current value followed by
    a write of a fresh one), from a recorded observability trace via
    {!Obs.Fold.history} ({!of_steps}), or generated at scale for
    throughput benchmarks ({!generate}).

    The distinguished value {!initial_value} ([0]) denotes "the initial
    value of the variable"; reads of it resolve to the virtual initial
    transaction, and no real write may use it. *)

type kind = R | W

type event = { kind : kind; var : Names.var; value : int }

type t

val initial_value : int
(** [0]. *)

val label : t -> string
val complete : t -> bool
(** [false] when the history was reconstructed from a truncated trace;
    the checker answers [Unknown] rather than risking a false verdict
    (same tolerance contract as {!Obs.Fold.counters}). *)

val n : t -> int
(** Number of transactions (ids [0 .. n-1]). *)

val n_events : t -> int
val events : t -> int -> event list
(** A transaction's events, program order. *)

val n_sessions : t -> int
val session_of : t -> int -> int
val session_pos : t -> int -> int
(** Position of a transaction inside its session (0-based). *)

val sessions : t -> int array array
(** [sessions h].(s) lists session [s]'s transactions in session
    order. Every transaction belongs to exactly one session. *)

val make :
  ?label:string -> ?complete:bool -> event list list list -> t
(** [make sessions]: sessions, each a list of transactions, each a list
    of events. Transaction ids are assigned in order of appearance. *)

val of_schedule : ?label:string -> Syntax.t -> Schedule.t -> t
(** Replay the schedule under value semantics (each step reads the
    variable's current value and installs a fresh one). One singleton
    session per transaction — the driver gives transactions no program
    order between each other, so none is claimed. *)

val of_steps :
  ?label:string -> complete:bool -> Syntax.t -> (int * int) list -> t
(** Same replay over an explicit committed-step sequence (what
    {!Obs.Fold.history} recovers from a trace). Steps of transactions
    beyond the syntax or indices beyond the format raise
    [Invalid_argument]. *)

(* ---------- derived structure (what the checker consumes) ---------- *)

val ext_reads : t -> int -> (Names.var * int) list
(** External reads: for each variable, the transaction's first read of
    it {e before} any own write — later reads are internal (checked by
    the INT well-formedness rule, invisible to other transactions). *)

val ext_writes : t -> int -> (Names.var * int) list
(** External writes: the {e last} write per variable. *)

val writers : t -> Names.var -> int list
(** Transactions externally writing a variable, ascending. *)

val writer_of : t -> Names.var -> int -> int option
(** The transaction whose external write on the variable carries this
    value; [None] for {!initial_value} and for dangling values. *)

val vars : t -> Names.var list
(** All variables appearing anywhere, sorted. *)

(* ---------- mutations (fuzzing aids) ---------- *)

type mutation =
  | Swap_reads
      (** invert one reads-from pair: the chain writer reads its
          successor's value — models two commits recorded in swapped
          order; rejected via a 2-cycle of reads-from edges *)
  | Drop_write
      (** delete an externally-read write — the reader's value dangles *)
  | Rewire_read
      (** a chain reader skips one link back: [t3] reads [t1]'s value
          while [t2]'s intervening write survives — no reads-from
          cycle, rejected only through the axiom machinery *)

val mutation_name : mutation -> string
val mutation_of_name : string -> mutation option
val mutations : mutation list

val mutate : mutation -> Random.State.t -> t -> t option
(** Apply the mutation at a seeded random applicable site; [None] when
    the history has no applicable site (e.g. no variable with a
    two-link reads-from chain). *)

(* ---------- generation ---------- *)

val generate :
  seed:int -> sessions:int -> txns:int -> steps:int -> n_vars:int -> t
(** A large serializable-by-construction history: [txns] transactions
    of [steps] RMW steps each on a pool of [n_vars] variables, executed
    in one global serial order and dealt round-robin onto [sessions]
    sessions (so the session order embeds into the execution order and
    the history is consistent at every level). [n_events = txns *
    steps * 2]. *)
