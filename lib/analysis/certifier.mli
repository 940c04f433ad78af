open Core

(** The scheduler certifier: an executable check of Theorem 1.

    A correct scheduler operating at information level [I] satisfies
    [P ⊆ ∩_{T' ∈ I} C(T')] — its zero-delay fixpoint set cannot exceed
    what every system it might be facing allows. The certifier replays a
    scheduler over every schedule of the format to measure [P]
    empirically ({!Sched.Driver.fixpoint_of}), materialises a finite
    micro-universe of systems at the scheduler's information level over
    [Z_k] ({!Optimality.Universe}), computes the intersection by brute
    force ({!Optimality.Verify.intersection_c}), and reports every
    violating history.

    The universe is necessarily a {e sub}-universe of the paper's (a
    finite domain cannot contain the Herbrand adversary), so the
    intersection computed here is a {e superset} of the true bound:
    a reported violation is a definite bug in the scheduler; a pass is
    a pass up to the universe. The slack [∩C \ P] is also reported — it
    measures how far the scheduler is from optimal at its level. *)

type level =
  | Format_only
      (** The scheduler sees only the format. The universe is all
          semantics and integrity constraints over a single variable —
          where the Theorem 2 adversary (increment/decrement vs double,
          [IC = {x = 0}]) lives. *)
  | Syntactic
      (** The scheduler sees the syntax. The universe is all semantics
          and integrity constraints over the given syntax (the Theorem 3
          setting). *)

val certify :
  ?k:int ->
  name:string ->
  make:(unit -> Sched.Scheduler.t) ->
  level:level ->
  Syntax.t ->
  Report.diagnostic list
(** [certify ~name ~make ~level syntax] runs the check over [Z_k]
    (default [k = 2]); [k < 2] raises [Invalid_argument] before any
    other check. Skips with [certify/skipped] when [|H|] exceeds 800 —
    the replay and the intersection are both exhaustive over [H] — or
    when the universe has more than 500,000 candidate systems
    ({!Optimality.Universe.candidates}; [xy,yx] has 61,440 at [k = 2]
    and certifies in a fraction of a second, [xx,xx,xx]'s 786,432 take
    about 8 s). Reports [certify/information-bound] as an error
    per violating history (with the history as witness), or as an info
    with the measured [|P|], the bound's size and the slack. *)
