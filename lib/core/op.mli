(** The typed operation a step performs on its variable.

    This is the {e single} step-kind type of the whole system: the
    syntax ({!Syntax.kind}), the read/write history model
    ({!Rw_model.action}), the interpreted machine ({!System.step_kind})
    and every scheduler draw their step classification from here.

    [Read] only observes the variable and installs nothing; [Update] is
    the paper's atomic read-modify-write [t ← x; x ← f(..., t)], whose
    result both depends on the value read and is observed by the client.
    [Write] installs a value that does not depend on the variable's
    current contents (a blind write). The {e semantic} operations model
    abstract-data-type updates whose read is unobservable — their entire
    effect is the state transformation:

    - [Incr] / [Decr]: [x ← x ± c] counter bumps;
    - [Enqueue]: insertion into an unordered collection (a bag — the
      insertion order is not observable, which is what lets two
      enqueues commute; a FIFO queue's enqueues would not);
    - [Max]: the monotone fold [x ← max x c].

    Which pairs commute is {!Commute}'s business; this module only names
    the operations and their observability classes. *)

type t = Read | Write | Update | Incr | Decr | Enqueue | Max

val all : t list
(** Every operation, fixed order — the domain of {!Commute}'s table. *)

val index : t -> int
(** The operation's position in {!all}, in [0 .. 6]: a slot in a table
    indexed by operation. *)

val writes : t -> bool
(** Whether the step installs a new value into its variable — true for
    everything except [Read]. *)

val observes : t -> bool
(** Whether the step's read is visible (to the client, or to later
    steps of its own transaction): true for [Read] and [Update] only.
    Blind and semantic operations expose nothing — formally, later
    interpretations of the same transaction may not depend on their
    local. {!System.step_kind} demotes a would-be semantic step to
    [Update] when that discipline is violated. *)

val to_char : t -> char
(** One-letter code, used by {!Analysis.Analyze.parse_syntax} specs:
    [r w u + - q m]. *)

val to_string : t -> string
