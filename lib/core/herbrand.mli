(** Herbrand (symbolic) semantics — Section 4.2.

    Under the Herbrand interpretation, the value written by step [T_ij]
    is the uninterpreted term [f_ij(a_1, ..., a_j)] where [a_k] is the
    term read by the transaction's [k]-th step. Terms capture the entire
    history of every global variable, so two schedules have the same
    execution results under {e every} interpretation iff they have the
    same final Herbrand state (Herbrand's theorem, [Manna 74]).

    A schedule is {b serializable} ([∈ SR(T)]) iff its final Herbrand
    state equals that of some serial schedule.

    {b Typed extension.} On typed syntax the semantics honours the
    declared operations: an [Op.Read] installs nothing; an [Op.Write]'s
    term omits its own (unused) read; and the semantic operations build
    a {e layered commutative normal form} — [Sem (group, ids, base)]
    records the sorted multiset of same-group operations applied on top
    of [base], so two schedules that only reorder commuting operations
    reach {e equal} states, and any observation (a [Read]/[Update], or
    a cross-group op starting a new layer) seals the layer below.
    Equality of normal forms is equivalence under every interpretation
    that respects the declared commutativity — no cancellation or other
    algebraic luck is assumed — which makes {!serializable} the exact
    oracle behind the [semantic] scheduler's differential tests.
    Untyped schedules (all [Op.Update]) reduce to the classical
    semantics above. *)

type group = Counter | Bag | Maxg
(** The commuting groups of {!Commute}: [Incr]/[Decr] bumps, [Enqueue]
    bag inserts, [Max] monotone folds. *)

type term =
  | Init of Names.var  (** the initial value of a variable *)
  | App of Names.step_id * term list
      (** [f_ij] applied to the terms read so far by transaction [i] *)
  | Sem of group * Names.step_id list * term
      (** a sorted multiset of commuting same-group operations applied
          over a base term *)

val compare_term : term -> term -> int
val term_to_string : term -> string
val term_size : term -> int

type hstate = term Names.Vmap.t
(** Symbolic global state: every variable's current term. *)

val initial : Syntax.t -> hstate

val exec_step : Syntax.t -> hstate * term option array array -> Names.step_id ->
  hstate * term option array array
(** Low-level: execute one step symbolically. The second component holds
    the local terms declared so far ([t_ij]). *)

val run : Syntax.t -> Schedule.t -> hstate
(** Final Herbrand state of a schedule (started from {!initial}). The
    schedule must be legal (per-transaction order); this is {e not}
    re-checked here. *)

val equal_state : hstate -> hstate -> bool

val serializable : Syntax.t -> Schedule.t -> bool
(** Membership in [SR(T)]: brute-force comparison against all [n!]
    serial schedules. Exponential by definition; see {!Conflict} for the
    polynomial test (provably equivalent in this step model). *)

val serialization_witness : Syntax.t -> Schedule.t -> int array option
(** [Some order] gives a serial transaction order with the same final
    Herbrand state, if one exists. *)

val equivalent : Syntax.t -> Schedule.t -> Schedule.t -> bool
(** Herbrand equivalence of two schedules of the same system. *)

val pp_state : Format.formatter -> hstate -> unit
