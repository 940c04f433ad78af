(** Versioned variable store shared by the multi-version engines
    ({!Mvcc}, {!Si}, {!Ssi}).

    Each variable carries a chain of committed versions stamped with
    the commit timestamp (a global counter 1, 2, ...) of the installing
    transaction; every variable is implicitly born at [initial_value]
    with timestamp 0. A transaction pins a snapshot timestamp when it
    begins, buffers its own writes privately, reads its own buffer
    first and otherwise the newest committed version at or before its
    snapshot, and installs its buffered writes atomically at commit.

    The store is policy-free: first-committer-wins and the SSI
    rw-antidependency probes are exposed as pure queries
    ({!ww_conflict}, {!newer_writers}, {!concurrent}) that the engines
    combine into abort decisions. Version chains and retained
    transaction records are garbage-collected as the minimum live
    snapshot advances. *)

type version = { value : int; writer : int; ts : int }

type txn = {
  id : int;
  snap : int;  (** snapshot timestamp, pinned at {!begin_txn} *)
  mutable reads : Core.Names.Vset.t;
      (** variables read from the store (own-buffer hits excluded) *)
  mutable writes : (Core.Names.var * int) list;  (** buffered, newest first *)
  mutable commit_ts : int option;
  mutable in_rw : bool;
      (** SSI: some concurrent transaction has an rw-antidependency
          edge into this one (sticky; survives into retention) *)
  mutable out_rw : bool;
      (** SSI: this transaction has an rw-antidependency edge out to
          some concurrent transaction *)
}

type t

val initial_value : int
(** The value every variable starts at — [0], matching
    [Analysis.History.initial_value] by convention (the obs/sched
    layers cannot depend on [Analysis]). *)

val create : unit -> t

val clock : t -> int
(** Current commit timestamp (0 before any commit). *)

val begin_txn : t -> int -> txn
(** Start (or restart) transaction [id] with snapshot [clock st]. *)

val live_txn : t -> int -> txn option
val snapshot : txn -> int
val reads_of : txn -> Core.Names.var list

val read : t -> txn -> Core.Names.var -> int * int option
(** [read st t x] is [(value, writer)]: [t]'s own buffered write of [x]
    if any (writer [None]), else the newest committed version at or
    before [t]'s snapshot ([Some] its installer; [None] for the initial
    value). Store reads are recorded in [t.reads]. *)

val read_at : t -> Core.Names.var -> snap:int -> int
(** Pure snapshot read: newest committed value of the variable at or
    before [snap] ({!initial_value} when none). The "version store vs
    naive model" test (test_mv) checks it against a naive model at
    every reachable snapshot. *)

val write : t -> txn -> Core.Names.var -> int
(** Buffer a globally fresh value for the variable; returns it. *)

val newest : t -> Core.Names.var -> version option
val chain : t -> Core.Names.var -> version list
(** Committed versions, newest first (pruned tail excluded). *)

val ww_conflict :
  t -> snap:int -> excluding:int -> Core.Names.var list -> Core.Names.var option
(** First-committer-wins probe: a variable among [vars] carrying a
    committed version newer than [snap] installed by a transaction
    other than [excluding], if any. Pure. *)

val newer_writers : t -> Core.Names.var -> than:int -> excluding:int -> int list
(** Distinct installers of committed versions of the variable newer
    than [than] — the targets of rw-antidependency edges out of a
    transaction that read it under snapshot [than]. Pure. *)

val concurrent : t -> snap:int -> excluding:int -> txn list
(** Transactions concurrent with a snapshot: all live ones plus
    retained committed ones with [commit_ts > snap]. Pure. *)

val min_live_snapshot : t -> int option

val commit : t -> txn -> int
(** Install the buffered writes (newest value per variable) at a fresh
    commit timestamp, retain the record, garbage-collect, and return
    the timestamp. The caller decides admissibility first. *)

val abort : t -> txn -> unit
(** Drop the live record (buffered writes and flags die with it). *)
