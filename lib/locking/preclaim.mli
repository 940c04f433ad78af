open Core

(** Conservative (static, preclaiming) locking.

    Every lock is acquired before the first action, in a {e fixed global
    order} (variable names sorted); each lock is released right after
    its variable's last access. The policy is two-phase, hence correct,
    and — because all transactions acquire locks in the same total order
    — it can never deadlock: the progress-space geometry has an empty
    region [D] for every two-transaction system (property-tested).

    The price is concurrency lost {e before} a variable's first access:
    every lock is held from the transaction's start. Interestingly the
    output sets of preclaim and 2PL are incomparable in general —
    preclaim may release a variable earlier relative to the remaining
    actions (its unlock follows the last access directly, while 2PL must
    wait for its phase shift), so each policy passes schedules the other
    cannot. The benches report both counts as an ablation of the
    placement rule (DESIGN.md §5). *)

val policy : Policy.t

val apply : Syntax.t -> Locked.t
