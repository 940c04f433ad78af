(** Folds over event traces: recover counters, §6 spans and latency
    histograms from the raw stream.

    The differential contract (enforced by [test/test_trace.ml]): on a
    driver-produced trace, {!counters} reproduces the driver's reported
    statistics {e exactly} — grants, delays, restarts, deadlocks,
    waiting, and the zero-delay flag. The trace is therefore a complete
    black-box witness of a run, in the Biswas–Enea sense: anything the
    stats say, the trace proves.

    Timestamp conventions of the driver (relied on by [waiting]):
    [Submitted] is stamped with the clock at submission, [Granted] with
    the clock at the decision instant (one tick before the corresponding
    [Executed]); submissions are matched to grants per transaction in
    FIFO order. Over a complete trace the matched total equals the
    driver's [waiting], which sums the same clocks without matching.

    All folds tolerate traces that start mid-stream (a ring buffer that
    dropped its oldest events): a grant whose submission was truncated
    away contributes no waiting observation, and a commit with no prior
    lifecycle event no span. The exact-reproduction guarantee holds for
    complete traces. *)

type counters = {
  submits : int;
  grants : int;
  delays : int;
  restarts : int;   (** [Aborted] events, any reason *)
  deadlocks : int;  (** [Aborted] events with reason [Deadlock] *)
  commits : int;
  waiting : int;
      (** Σ over grants of [grant_ts - submit_ts], FIFO-matched — the
          driver's waiting statistic *)
  refusals : int;
      (** [Cycle_refused] events: the refusals a graph engine searched
          for, its cached delays left out — a deterministic work count *)
}

val counters : (float * Event.t) list -> counters

val zero_delay : counters -> bool
(** No delay and no abort anywhere in the trace. *)

val spans : n:int -> (float * Event.t) list -> Span.t
(** Replay the lifecycle into per-transaction spans: a transaction is
    [Waiting] from a [Delayed] verdict until its next grant or abort,
    [Executing] from [Granted] to [Executed], and [Scheduling] the rest
    of the time between first submission and commit. *)

val wait_histogram : (float * Event.t) list -> Hist.t
(** Per-grant waiting times (FIFO-matched [grant_ts - submit_ts],
    truncated to int) folded into a log₂ histogram. *)

type history = {
  steps : (int * int) list;
      (** committed [(tx, idx)] steps in execution order — the run's
          committed schedule, grants of aborted incarnations excluded *)
  commits : int list;  (** transactions with a [Committed] event, sorted *)
  truncated : bool;
      (** evidence that the trace starts mid-stream (ring truncation):
          an incarnation whose first recorded execution is not step 0,
          or a commit with no recorded executions. A truncated
          reconstruction is {e not} a faithful witness — consumers must
          degrade to partial verdicts, mirroring the {!counters}
          tolerance contract. Wholesale drops that remove {e entire}
          transactions leave no evidence in the stream; callers holding
          a ring buffer must additionally consult its drop counter. *)
}

val history : (float * Event.t) list -> history
(** Reconstruct the committed schedule from a lifecycle trace: replay
    [Executed] events per incarnation (an [Aborted] discards the
    incarnation's steps, mirroring the driver's restart semantics) and
    keep exactly the steps of transactions that reach [Committed]. On a
    complete driver trace the result equals the driver's [output]
    schedule (enforced differentially by [test/test_checker.ml]). *)

type mv_access = {
  write : bool;  (** a [Version_installed]; otherwise a [Version_read] *)
  var : string;
  value : int;
}

type mv_history = {
  recorded : bool;
      (** any version event present — i.e. the trace came from a
          multi-version engine, whose reads must be reconstructed from
          version events rather than replayed from the schedule *)
  txns : (int * mv_access list) list;
      (** committed transactions with their accesses in program order,
          sorted by transaction id; aborted incarnations excluded *)
  mv_commits : int list;
  mv_truncated : bool;
      (** a committed transaction with no recorded accesses — evidence
          of ring truncation. Like {!history}, this cannot see every
          drop; combine with {!history}'s flag and the ring's drop
          counter. *)
}

val blocking_windows : (float * Event.t) list -> (int * float) list
(** Per-transaction 2PC blocking windows recovered from the trace: for
    each transaction with a commit round, the maximum over participants
    of [decided_ts - yes_vote_sent_ts] — the span a yes-voter was in
    doubt (uncertain of the outcome, unable to release anything). A
    participant that never voted yes contributes no window; several
    rounds of the same transaction (abort + restart) keep the maximum.
    On a complete round trace this equals the simulator's own measured
    [blocking] (enforced differentially by [test/test_twopc.ml]).
    Sorted by transaction id. *)

val mv_history : (float * Event.t) list -> mv_history
(** Reconstruct the per-transaction read/write access log of a
    multi-version run from its [Version_read]/[Version_installed]
    events (an [Aborted] discards the incarnation's accesses). The
    result feeds [Analysis.History.make] with the values the engine
    actually served — unlike the single-version replay of
    [Analysis.History.of_steps], which would misreport snapshot
    reads. *)
