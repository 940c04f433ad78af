(** Per-transaction span accounting — the paper's §6 decomposition of a
    transaction's elapsed time into {e scheduling}, {e waiting} and
    {e execution} time.

    A transaction's life from first submission to commit is attributed
    to exactly one phase at every instant: it is {e scheduling} while a
    request sits in the scheduler's queue awaiting a verdict (or the
    transaction idles between steps), {e waiting} while parked by a
    [Delay] verdict, and {e executing} while a granted step runs.
    Because phases partition the timeline, the invariant

    [scheduling + waiting + execution = elapsed]

    holds per transaction by construction — the property test's anchor.
    Restarts do not reset a span: redone work is counted where it is
    spent, and [elapsed] runs to the final commit. *)

type phase = Scheduling | Waiting | Executing
type t

val create : int -> t
(** One span per transaction, all unstarted. *)

val started : t -> int -> bool
(** Whether the transaction's span has begun (first {!enter}). *)

val enter : t -> int -> now:float -> phase -> unit
(** Close the current phase at [now] (crediting its accumulator) and
    open [phase]. The first [enter] starts the span's clock. [now] must
    be monotone per transaction; raises [Invalid_argument] on a
    backwards clock or on entering a finished span. *)

val finish : t -> int -> now:float -> unit
(** Close the current phase and freeze the span; [elapsed] becomes
    [now - start]. *)

type breakdown = {
  scheduling : float;
  waiting : float;
  execution : float;
  elapsed : float;
}

val breakdown : t -> int -> breakdown
(** All zero for a never-started transaction; [elapsed] of an
    unfinished span reads up to the last phase change. *)

val totals : t -> breakdown
(** Componentwise sum over all transactions. *)
