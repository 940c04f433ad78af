open Core

(** The lock-policy linter.

    Statically checks a locked transaction system (a locking policy
    applied to a syntax, or a hand-written locking given as raw step
    lists) for:

    - {b pairing} ([lock/pairing], error): every [unlock X] matches an
      earlier unmatched [lock X], no double acquisition, nothing held at
      transaction end — the legality alphabet of §5.1;
    - {b structure} ([lock/malformed], error): the action steps are
      exactly the base transaction's steps in program order;
    - {b coverage} ([lock/coverage], error): every access to a variable
      happens while its lock bit is held — §5.3's well-formedness
      assumption;
    - {b two-phasedness} ([lock/two-phase], warning when violated, info
      when satisfied) — §5.2;
    - {b separability} ([lock/non-separable], warning; [lock/separable],
      info) when a policy is supplied: the transformation of each
      transaction is recomputed on the transaction alone and compared —
      §5.4's definition, checked empirically on this system;
    - {b deadlock} ([lock/deadlock], warning): the n-dimensional
      progress geometry's deadlock region (§5.3), reported with a
      concrete doomed progress vector and a legal interleaving prefix
      that reaches it;
    - {b output serializability} ([lock/non-serializable-output], error):
      exhaustively, every legal locked interleaving must project to a
      conflict-serializable base schedule — the Figure 4(c) criterion —
      with a violating interleaving as witness. *)

type input = {
  base : Syntax.t;
  txs : Locking.Locked.step list list;
      (** may be ill-formed; the linter reports *)
  policy : Locking.Policy.t option;
      (** when present, enables the separability check *)
}

val of_policy : Locking.Policy.t -> Syntax.t -> input
val of_locked : ?policy:Locking.Policy.t -> Locking.Locked.t -> input

val lint : input -> Report.diagnostic list
(** Run every applicable check. A bound of 50 000 interleavings caps the
    exhaustive output-serializability enumeration; when the locked
    system is larger the check is skipped with an informational
    diagnostic ([lock/outputs-skipped]) — no silent truncation. The
    geometry pass is likewise skipped ([lock/geometry-skipped]) when the
    progress grid would exceed {!Locking.Geometry_nd.analyse}'s guard. *)
