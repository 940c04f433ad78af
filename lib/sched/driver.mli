open Core

(** The request-stream driver.

    Feeds an arrival stream (an interleaving of the format — the history
    the users would produce with no interference) to a scheduler,
    queueing delayed requests FIFO and retrying them after every grant,
    in counted passes: a queued request that is one of the engine's
    standing refusals is counted as a delay, not asked, and one that
    the driver already saw standing since the last abort is counted
    without being walked again.
    When the stream is exhausted, remaining requests are retried until
    everything completes; a stall (no grantable request) is resolved by
    aborting the scheduler's chosen victim, counting a {e deadlock}.
    The stuck list handed to the scheduler's [victim] is ordered
    youngest-first by each transaction's {e first} arrival (seniority is
    wound-wait style: fixed once, kept across restarts), so a scheduler
    that prefers victims early in the list never aborts the oldest live
    transaction and the drain loop provably terminates. The list is a
    seniority walk over the arrival order, not a sort.

    A queued request whose step is one of the engine's standing refusals
    ([standing] in {!Scheduler.t}) is answered by the driver itself, without
    an [attempt] call: it is counted in [delays] and traced as
    [Delayed] exactly as the engine's [Delay] would be, so the stats,
    the events and {!Obs.Fold.counters} over them are unchanged; only
    the engine's call count drops.

    An aborted transaction restarts from its first step; its outstanding
    requests are replayed. The final [output] is the committed schedule
    (grants of aborted incarnations excluded) and is always a legal
    schedule of the format. *)

type stats = {
  output : Schedule.t;
  delays : int;      (** requests that could not be granted immediately *)
  restarts : int;    (** transaction aborts (incl. deadlock victims) *)
  deadlocks : int;   (** stalls the driver had to resolve *)
  waiting : int;
      (** total waiting, in events: for each granted request, the number
          of driver events between its (latest) submission and its
          grant *)
  grants : int;      (** total grants, re-executions included *)
  aborts : int array;
      (** per-transaction abort count (the incarnation a transaction
          committed at); sums to [restarts]. Unlike [delays]/[waiting],
          this is a pure function of the scheduler's decisions, which
          makes it the right field for decision-identity differentials
          between execution engines. *)
}

val zero_delay : stats -> bool
(** No request was ever delayed or aborted — the input history was in
    the scheduler's fixpoint set. *)

exception Stall of string
(** The driver could not make progress: the scheduler declined to name a
    stall victim, or the livelock budget ran out. Typed so callers (the
    CLI in particular) can render a clean diagnostic instead of a
    backtrace. *)

type t
(** An in-progress run: a scheduler plus the driver's request
    bookkeeping. Not thread-safe — callers running drivers on multiple
    domains give each domain its own [t] (see [Sched.Parallel]). *)

val create : ?sink:Obs.Sink.t -> Scheduler.t -> fmt:int array -> t
(** A fresh run over [fmt] with nothing submitted yet. *)

val submit : t -> int -> unit
(** Feed one arrival (a transaction index): the request is recorded and
    as many queued requests as the new arrival unblocks are granted
    immediately — the same eager policy the monolithic {!run} always
    had. May raise {!Stall} via a scheduler abort cascade. Raises
    [Invalid_argument], before anything is recorded, when every step of
    the transaction's current incarnation is already requested: a
    transaction has no more requests in flight than steps. *)

val resolve_stall : t -> unit
(** Resolve one stall: abort the scheduler's [victim] among the queued
    transactions (the seniority walk above, youngest first), count a
    deadlock, queue the victim's replay behind everyone it was blocking,
    then retry the queue once. {!drain} runs it after every pass that
    grants nothing; a caller with its own clock (such as [Sim.Des]) runs
    it when every open request is queued and refused. Raises {!Stall}
    if the scheduler names no victim. *)

val drain : t -> stats
(** Retry the queued remainder until every submitted transaction
    completes, resolving stalls with {!resolve_stall}; then return the run's
    statistics. Raises {!Stall} if the scheduler cannot resolve a stall
    or the run livelocks: [20 * (n + 1)] passes over the queue, for [n]
    transactions, without a transaction completing. Draining is
    terminal: submitting into a drained driver restarts the tail loop on
    the next {!drain}, but the intended protocol is submit*, then one
    drain. *)

val run :
  ?sink:Obs.Sink.t -> Scheduler.t -> fmt:int array -> arrivals:int array ->
  stats
(** [create], {!submit} of each arrival in order, {!drain} — the
    one-shot composition.
    Raises {!Stall} if the scheduler cannot resolve a stall or the run
    livelocks.

    With a [sink], the full request lifecycle is recorded: [Submitted]
    at each arrival (and at each replay after an abort), [Delayed] per
    delay verdict (re-attempts included, mirroring [delays]), [Granted]
    at the decision instant, [Executed] one clock tick later (the tick
    {e is} the step's execution), [Committed] after a transaction's
    final step, and [Aborted]/[Restarted] around each restart, with the
    abort reason distinguishing scheduler-initiated aborts from
    deadlock-victim kills. Folding the trace with {!Obs.Fold.counters}
    reproduces the returned {!stats} exactly. The default no-op sink
    costs one predictable branch per event — the hot path stays hot. *)

val fixpoint_of : (unit -> Scheduler.t) -> int array -> Schedule.t list
(** The empirical fixpoint set: every schedule of the format passed with
    zero delay by a fresh scheduler instance. Small formats only. *)

val zero_delay_fraction :
  (unit -> Scheduler.t) -> fmt:int array -> samples:int -> seed:int -> float
(** Monte-Carlo estimate of [|P| / |H|] over uniformly random arrival
    histories. Raises [Invalid_argument] if [samples < 1]. *)
