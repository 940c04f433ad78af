open Core

(** The 2PL′ policy of Section 5.4 — the witness that 2PL is not optimal
    among separable locking policies.

    Given a distinguished variable [x], 2PL′ transforms each transaction
    as follows (Figure 5):

    + apply 2PL to all variables except [x]; [x] itself gets [lock X]
      before its first access but is released {e early}: [unlock X]
      right after its last access — a two-phase violation that is
      repaired by an auxiliary lock [X′];
    + after the first access of [x], insert the pair [lock X′; unlock X′];
    + after the last access of [x], insert [lock X′] and then [unlock X];
    + after the last lock step of the transaction, insert [unlock X′].

    The policy is correct and separable, and strictly better than 2PL in
    performance on systems where [x]'s early release enables extra
    interleavings — but it singles out [x], so it does not contradict
    2PL's optimality over {e unstructured} variables. *)

val policy : distinguished:Names.var -> Policy.t

val on_first_var : Syntax.t -> Policy.t
(** 2PL′ with the syntax's first variable distinguished: the one rule
    both the [2PL'] registry engine and the analyzer's [2pl'] policy
    use. *)

val apply : distinguished:Names.var -> Syntax.t -> Locked.t
