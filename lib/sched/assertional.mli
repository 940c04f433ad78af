open Core

(** Lamport's assertional scheduler (Section 6) — a scheduler that uses
    the integrity constraints (through correctness proofs) and can
    produce correct schedules beyond the serializable ones.

    Each transaction carries Floyd-style assertions on the arcs of its
    (straight-line) program: [arcs.(i).(k)] is the assertion holding
    after [k] granted steps of transaction [i] ([k] ranges over
    [0 .. m_i]; the entry and exit assertions are typically the
    integrity constraints). The scheduling policy is the paper's:

    {e the request to execute one step is granted only if the execution
    will not invalidate any of the assertions attached to those arcs
    where the tokens of the other transactions reside.}

    The scheduler owns the database state (it must evaluate the actual
    interpretations); aborts restore the transaction's writes from an
    undo log — the paper's "backing up" resolution for assertional
    deadlocks. *)

type arcs = Expr.Ast.t array array
(** Boolean expressions over global variables; [arcs.(i)] has length
    [m_i + 1]. *)

val ic_arcs : System.t -> arcs
(** Entry and exit arcs carry the system's [Pred] integrity constraint,
    interior arcs are [true]. Raises [Invalid_argument] for non-[Pred]
    constraints. *)

val create :
  system:System.t -> arcs:arcs -> initial:State.t -> unit ->
  Scheduler.t * (unit -> State.t)
(** The scheduler applies the steps to its own copy of the state,
    starting from [initial]; the second component reads the database
    state after the grants so far. *)
