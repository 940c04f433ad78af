open Core

(** Strict two-phase locking: every lock is held until the transaction
    ends (all unlocks after the last action).

    This is the variant real systems deploy, because holding write locks
    to the end is what makes histories {e strict} — recoverable without
    cascading aborts (see {!Core.Recovery}); the paper points at exactly
    this trade-off when it lists recovery [Gray 78] among the reasons a
    scheduler may be kept at an imperfect information level. The price
    relative to canonical 2PL is the early releases it gives up: its
    output set is contained in 2PL's (tested), and strictly so whenever
    some variable's last use precedes another's first use. *)

val policy : Policy.t

val apply : Syntax.t -> Locked.t
