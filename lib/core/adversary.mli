(** Executable adversary constructions from the proofs of Theorems 1–3.

    Theorem 1 states that a correct scheduler using information level [I]
    has fixpoint set [P ⊆ ∩_{T'∈I} C(T')]. Its proof — and the proofs of
    the optimality theorems — work by {e constructing} an adversarial
    transaction system [T' ∈ I] for which a given schedule is incorrect.
    This module materialises those constructions so the theorems become
    testable claims:

    - {b Theorem 2}: any non-serial schedule is refuted by a system whose
      interrupted transaction is [x ← x+1 ... x ← x−1] and whose
      interrupting transaction is [x ← 2x], with [IC = (x = 0)]. The
      adversary shares the {e format} of the original system (the
      minimum-information level).
    - {b Theorem 3}: any non-serializable schedule is refuted by the
      Herbrand system over the same {e syntax}, with [IC] = the states
      reachable from the initial values by concatenations of serial
      transaction executions. *)

val interruption : Schedule.t -> (Names.step_id * Names.step_id * Names.step_id) option
(** A witness of non-seriality: steps [T_ij], [T_kl], [T_i(j+1)]
    appearing in this order with [k ≠ i] — some transaction interrupted
    by another. [None] iff the schedule is serial. For an interrupted
    final step (nothing of [T_i] follows the interruption), returns the
    last step of [T_i] before and the first after... (there is always a
    later [T_i] step by maximality of the choice). *)

val theorem2_adversary : int array -> Schedule.t -> System.t option
(** [theorem2_adversary fmt h] is [Some t'] for non-serial [h]: a system
    with format [fmt], single variable ["x"], [IC = (x = 0)], in which
    every transaction is individually correct but running [h] from
    [x = 0] ends inconsistent. [None] iff [h] is serial. *)

val theorem2_refutes : int array -> Schedule.t -> bool
(** Checks by {e execution} that the constructed adversary refutes [h]:
    all transactions individually correct, initial state consistent,
    final state of [h] inconsistent. [false] if [h] is serial. *)

val herbrand_reachable : Syntax.t -> Herbrand.hstate -> bool
(** The Theorem-3 integrity constraint: is a Herbrand state reachable
    from the initial values by a concatenation of serial transaction
    executions? Searched over concatenations of length [n], which
    suffices for full schedules, since symbolic states count symbol
    applications. *)

val theorem3_refutes : Syntax.t -> Schedule.t -> bool
(** For [h ∉ SR(T)]: checks that executing [h] under the Herbrand
    semantics leaves the constructed [IC] (serial reachability).
    Equivalence [theorem3_refutes s h ⟺ not (Herbrand.serializable s h)]
    is the executable content of Theorem 3 and is property-tested. *)

val theorem1_bound_holds :
  universe:System.t list -> probes:State.t list -> Schedule.t list -> bool
(** Direct check of the Theorem-1 inequality on an explicit finite
    universe [I]: every listed schedule that is in the claimed fixpoint
    set must be in [C(T')] for each [T' ∈ I]. The caller passes the
    schedules it claims a scheduler passes undelayed. *)
