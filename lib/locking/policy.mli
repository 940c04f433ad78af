open Core

(** Locking policies (Section 5.1).

    A locking policy maps a transaction system's syntax to a locked
    transaction system. A policy is {b separable} when it transforms one
    transaction at a time, using no information about the others —
    2PL and 2PL′ are separable; the single-mutex policy trivially so;
    tree locking is separable but assumes structured (hierarchical)
    variables, which is exactly how it escapes 2PL's optimality
    (§5.4). *)

type t = {
  name : string;
  apply : Syntax.t -> Locked.t;
}

val separable : string -> (int -> Names.var array -> Locked.step list) -> t
(** [separable name f] builds a policy from a per-transaction
    transformation: [f i accesses] returns the locked step list of
    transaction [i] given its access list. *)

val correct_exhaustive : t -> Syntax.t -> bool
(** Same check for any (small) number of transactions. *)

val output_count : t -> Syntax.t -> int
(** |outputs| — the §5.2 performance measure. *)

val dominates : t -> t -> Syntax.t -> bool
(** [dominates p q s]: every schedule output by [q] is output by [p]
    (and the policies are thus comparable on [s]). *)

val strictly_better : t -> t -> Syntax.t -> bool
(** [dominates p q s] and some schedule separates them. *)
