open Core

(** A locking-policy scheduler: the lock-respecting scheduler driven by
    any {!Locking.Policy.t} (2PL by default in the benches).

    It drives {!Locking.Lrs}, the machine and lock table that
    {!Locking.Locked.passes} runs offline: a step is granted when no
    other transaction holds a lock its segment (or, for a final action,
    its whole trailing protocol) needs, and the grant runs the segment,
    the action and the eager unlock run. Deadlocks surface as driver
    stalls; the victim (the blocked transaction whose abort frees a
    wait-for cycle, or the first blocked one) releases its locks and
    restarts.

    Its zero-delay set is {!Locking.Locked.passes}' set, checked by the
    locking suite's "Tpl_sched zero delay = Locked.passes" test for 2PL,
    2PL′ and preclaim over every syntax of four small formats — strictly
    inside the SGT scheduler's fixpoint, which is the formal content of
    §5.4's "2PL cannot be optimal as a scheduler". *)

val create :
  ?sink:Obs.Sink.t -> policy:Locking.Policy.t -> syntax:Syntax.t -> unit ->
  Scheduler.t
(** With a [sink], lock acquisitions/releases emit
    {!Obs.Event.Lock_acquired}/{!Obs.Event.Lock_released} and each
    named wait-for-cycle victim emits {!Obs.Event.Wound}. Constructor
    shape per the convention in {!Scheduler}. *)

val create_2pl : ?sink:Obs.Sink.t -> syntax:Syntax.t -> unit -> Scheduler.t
