open Core

(** A locking-policy scheduler: the lock-respecting scheduler driven by
    any {!Locking.Policy.t} (2PL by default in the benches).

    Each transaction executes its locked program; a step request runs
    the pending segment of lock steps just before the action
    (just-in-time acquisition) and is delayed if any lock is held by
    another transaction. After an action, the immediately following
    unlock steps release eagerly. Deadlocks surface as driver stalls;
    the victim (the blocked transaction whose abort frees a wait-for
    cycle, or the first blocked one) releases its locks and restarts.

    Its zero-delay set is {!Locking.Locked.passes}' set — strictly inside
    the SGT scheduler's fixpoint, which is the formal content of §5.4's
    "2PL cannot be optimal as a scheduler". *)

val create :
  ?sink:Obs.Sink.t -> policy:Locking.Policy.t -> syntax:Syntax.t -> unit ->
  Scheduler.t
(** With a [sink], lock acquisitions/releases emit
    {!Obs.Event.Lock_acquired}/{!Obs.Event.Lock_released} and each
    named wait-for-cycle victim emits {!Obs.Event.Wound}. Constructor
    shape per the convention in {!Scheduler}. *)

val create_2pl : ?sink:Obs.Sink.t -> syntax:Syntax.t -> unit -> Scheduler.t
