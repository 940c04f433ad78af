open Core

(** Locked transaction systems (Section 5.1).

    A locking policy maps a transaction system [T] into a locked system
    [L(T)]: the same action steps with [lock X] / [unlock X] steps
    inserted. Locking variables have domain [{0, 1, -1}] with the fixed
    interpretations

    - [lock X]:   [X := if X = 0 then 1 else -1]
    - [unlock X]: [X := if X = 1 then 0 else -1]

    and the integrity constraint of [L(T)] is just [∀X. X = 0] — all the
    cleverness lives in the policy. A sequence of locked steps is
    {b legal} when no lock variable ever reaches [-1] and all are [0] at
    the end. *)

type lock_var = string

type step =
  | Lock of lock_var
  | Unlock of lock_var
  | Action of Names.step_id
      (** An original step of the base system (its id in [T]). *)

type transaction = step array

type t = {
  base : Syntax.t;  (** the original system's syntax *)
  txs : transaction array;
}

val make : Syntax.t -> step list list -> t
(** Checks that transaction [i]'s [Action]s are exactly the base steps
    [(i,0) .. (i,m_i-1)] in order, and that lock/unlock steps are
    balanced per transaction (each [Unlock X] matches an earlier
    unmatched [Lock X]; none left open at the end — each transaction is
    individually legal). Raises [Invalid_argument] otherwise. *)

val lock_vars : t -> lock_var list
(** All lock variables, sorted. *)

val format : t -> int array
(** Lengths of the locked transactions (lock steps included). *)

val is_two_phase : t -> bool
(** No [Lock] after the first [Unlock], in any transaction. *)

val is_well_formed : t -> bool
(** Every action on base variable [v] is performed while holding the
    lock variable [v] (the lock bit of the same name) — §5.3's
    assumption for the geometric serializability criterion. Lock
    variables with other names are ignored. *)

val holds_after : transaction -> lock_var -> int -> bool
(** [holds_after tx x p]: after executing the first [p] steps of the
    locked transaction, is [X] held? *)

val machine : t -> Names.step_id Lrs.t
(** The lock-respecting scheduler over the locked transactions, each
    [Lock x] an [Exclusive] request: the machine the online engine
    [Sched.Tpl_sched] drives. *)

(** {1 Legality of locked schedules}

    A locked schedule is an interleaving of the locked transactions,
    represented as an [int array] of transaction indices (entry [k] =
    which transaction performs its next locked step at position [k]).
    Every check below is {!Lrs}'s, which holds the lock table and the
    machine shared with {!Rw_lock}. *)

val legal : t -> int array -> bool
(** No lock error and every lock free at the end. *)

val legal_prefix : t -> int array -> bool
(** No lock error in the (possibly partial) interleaving. *)

val project : t -> int array -> Schedule.t
(** Erase lock steps, keep the base schedule (§5.2's comparison with
    ordinary schedulers). *)

val outputs : t -> Schedule.t list
(** The performance set of the policy: projections of all legal locked
    schedules, deduplicated, in first-seen order. *)

val can_output : t -> Schedule.t -> bool
(** Membership of a base schedule in {!outputs} without enumerating all
    interleavings: a memoized reachability search over the
    per-transaction progress. This is §5.2's performance set for the
    policy. *)

val passes : t -> Schedule.t -> bool
(** Zero-delay passability of a base schedule through the {e greedy}
    lock-respecting scheduler ({!Lrs.passes}): actions are granted in
    the order of [h]; before an action, its transaction's pending steps
    up to that action run in order (a [Lock] held elsewhere = not
    passable), and after an action the immediately following [Unlock]
    steps are released eagerly, or after the final action the whole
    trailing protocol. [passes l h] implies [can_output l h]; the
    converse can fail, because a real scheduler only reaches the lock
    steps between two actions when the second action is requested,
    whereas {!can_output} may schedule them earlier. Both notions are
    reported in the benches. *)

val pp_step : Format.formatter -> step -> unit
val pp : Format.formatter -> t -> unit
(** One transaction per block, one step per line, as in Figures 2/5. *)
