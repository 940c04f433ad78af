open Core

(** The introduction's strawman, as a locking policy: a single global
    mutex held for the whole transaction. Its output set is exactly the
    serial schedules — the optimal behaviour for minimum information
    (Theorem 2), and the baseline every other policy should beat. *)

val policy : Policy.t

val apply : Syntax.t -> Locked.t
