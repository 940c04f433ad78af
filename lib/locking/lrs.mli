open Core

(** The trivial lock-respecting scheduler (LRS) of §5 and its lock
    table, shared by every locked model: {!Locked} offline,
    {!Rw_lock} offline, and the online engine [Sched.Tpl_sched].

    A locked program is an array of the model's own steps; a {e view}
    reads each step as a lock request, a release or an action. The lock
    table maps a lock variable to its holders and their modes. [Shared]
    holders are compatible with each other, an [Exclusive] one with
    nobody, and a request is never blocked by its own transaction (which
    is how an upgrade succeeds for a sole sharer). Exclusive-only models
    lock [Exclusive]. *)

type mode = Shared | Exclusive

val compatible : mode -> mode -> bool
(** [compatible held requested] — only [Shared]/[Shared]. *)

type 'a op =
  | Lock of string * mode
  | Unlock of string
  | Act of 'a  (** an action of the base system *)

type 'a t
(** The machine over programs whose actions read as ['a]: a position
    per transaction and the lock table. *)

val create : ('s -> 'a op) -> 's array array -> 'a t
(** The programs read through the view, every transaction at its first
    step, no lock held. *)

val next_action : 'a t -> int -> 'a option
(** Transaction [i]'s next action, [None] once none is left. *)

val blockers : 'a t -> int -> int list
(** The other transactions whose locks the grant of [i]'s next action
    would need, one per conflicting holder of each lock step it runs, in
    program order: the lock segment before the action, and when the
    action is [i]'s last, the whole trailing protocol too (2PL′ ends with
    a [lock x'] step). Empty when the grant can go ahead. *)

val advance : 'a t -> int -> ('a op -> unit) -> unit
(** Grant [i]'s next action: run its lock segment, the action, then the
    eager run of releases after it, or the whole trailing protocol after
    [i]'s last action. The callback sees each lock step that changes the
    table, in order. Call only when {!blockers} is empty. *)

val reset : 'a t -> int -> unit
(** Abort: [i] back at its first step, its locks released. *)

val passes :
  ('s -> 'a op) -> ('a -> Names.step_id) -> 's array array -> 'a array -> bool
(** Zero-delay passability: grant the actions of [h] in order, each
    only if it is its transaction's next action and has no
    {!blockers}, and end with no lock held. *)

(** {1 Legality of locked schedules}

    An interleaving is an [int array] of transaction indices: entry [k]
    is the transaction whose next step runs at position [k]. *)

val legal_prefix : ('s -> 'a op) -> 's array array -> int array -> bool
(** Every step runs in turn, and no lock request meets an incompatible
    holder. *)

val legal : ('s -> 'a op) -> 's array array -> int array -> bool
(** {!legal_prefix}, every program run to its end, no lock held. *)

val project : ('s -> 'a op) -> 's array array -> int array -> 'a array
(** The actions in interleaving order, lock steps erased. *)

val outputs : ('s -> 'a op) -> 's array array -> 'a array list
(** Projections of every legal interleaving, deduplicated, in first-seen
    order. Small systems only. *)

val can_output :
  ('s -> 'a op) -> ('a -> Names.step_id) -> 's array array -> 'a array -> bool
(** Membership of [h] in {!outputs} without enumerating interleavings: a
    memoized reachability search over the positions, which determine
    the lock table. *)

val is_two_phase : ('s -> 'a op) -> 's array -> bool
(** No lock request after the first release. *)
