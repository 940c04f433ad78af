(** Discrete-event simulation of the Section 6 environment.

    Multiple users at terminals run transactions that arrive over time
    (Poisson); a single {e central} scheduler serves one decision at a
    time. The time to carry out a step splits exactly as in the paper:

    - {b scheduling time}: waiting for the scheduler to become free plus
      the (constant) time it takes to decide;
    - {b waiting time}: parked by a refusal until a grant or an abort
      sends the scheduler back over its queue;
    - {b execution time}: the (constant) time the step itself takes,
      assumed independent of the scheduler; executions of different
      users overlap.

    The simulation is a clock around {!Sched.Driver}: each request (a
    transaction's first step at its arrival, step [k + 1] when step [k]
    finishes executing) is one [Driver.submit], and the driver makes
    every decision, re-ask, abort and replay. Each engine [attempt] the
    driver makes costs [sched_time] on the one server, in the driver's
    order; each grant's execution ends [exec_time] after its decision.
    No refusal is answered without a decision (the engine's standing
    refusals are not published to the driver). An aborted transaction
    is replayed at once, with no backoff; its replayed steps are decided
    back to back and their executions may overlap. When no step is
    executing and requests are queued, every one of them was refused
    and no arrival can undo that (an SGT refusal stands until an abort,
    a lock wait until its holder moves), so the stall is resolved at
    once by {!Sched.Driver.resolve_stall}. *)

type params = {
  arrival_rate : float;   (** transactions per time unit (Poisson) *)
  exec_time : float;      (** per step *)
  sched_time : float;     (** per decision *)
  seed : int;
}

type result = {
  n_transactions : int;
  makespan : float;
  throughput : float;        (** completed transactions per time unit *)
  avg_latency : float;       (** arrival → commit *)
  avg_scheduling : float;    (** per transaction *)
  avg_waiting : float;
  avg_execution : float;
  restarts : int;
  deadlocks : int;
}

val run :
  ?sink:Obs.Sink.t ->
  params ->
  syntax:Core.Syntax.t ->
  scheduler:(unit -> Sched.Scheduler.t) ->
  result
(** Simulates every transaction of the syntax exactly once (arrivals in
    transaction order at Poisson instants). The phases are kept in
    {!Obs.Span}, so [latency = scheduling + waiting + execution] holds
    per transaction, restarts included: while one of its steps executes
    a transaction is executing, else scheduling while a request is
    queued or decided, else waiting from a refusal to the next grant
    or abort. [restarts] and
    [deadlocks] are the driver's. Raises {!Sched.Driver.Stall} if the
    scheduler cannot resolve a stall or [20 * (n + 1)] stall resolutions
    follow each other without a step completing (an engine that refuses
    every replay), and [Invalid_argument] if a phase
    clock moves backwards.

    With a [sink], the driver's request lifecycle ([Submitted],
    [Granted]/[Delayed], [Aborted]+[Restarted], [Executed],
    [Committed]) and the engine's own events are stamped at the virtual
    time of the driver call that emits them: a submission at its
    arrival or completion instant, a replay at its abort, a decision at
    its end. [Executed]
    and [Committed] are the driver's, stamped at the grant, not at the
    execution's end; a transaction without steps emits nothing. On the
    folded trace, [Fold.counters] reproduces [restarts], [deadlocks] and
    a commit per transaction with steps. *)

val pp_result : Format.formatter -> result -> unit
