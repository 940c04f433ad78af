(** Syntax of a transaction system (Section 2 of the paper).

    The syntax records, for each step [T_ij], only the name [x_ij] of the
    global variable it accesses, together with an uninterpreted function
    symbol [f_ij] (implicit: the symbol is identified with the step id).
    Each step is the indivisible execution of
    [t_ij ← x_ij ; x_ij ← f_ij(t_i1, ..., t_ij)].

    Steps additionally carry an operation type {!Op.t}. The paper's
    model makes every step an atomic read-modify-write ([Op.Update],
    the default everywhere); [Op.Read] marks a step that only reads its
    variable and installs nothing, and the remaining operations declare
    blind or semantic updates whose commutativity {!Commute} exposes to
    the schedulers. Single-version rw machinery ([Conflict] on untyped
    syntax, the locking policies, SGT) conservatively treats every
    non-[Read] step as an update, which preserves all their guarantees;
    the multi-version engines ([Sched.Mvcc]/[Si]/[Ssi]), the semantic
    scheduler ([Sched.Semantic]) and the history recorder
    ([Analysis.History]) honour the distinction.

    {b Representation.} Each distinct variable has an integer id,
    numbered by first use in step order (transaction by transaction,
    step by step), and its name is kept once, in a pool indexed by id.
    A step stores only its variable's id. The numbering is canonical:
    two syntaxes access the same names at the same steps exactly when
    their ids and pools are equal. Every constructor goes through one
    path, which reads pool indices in step order and renumbers them by
    first use: {!init} takes the indices from its caller, and {!make}
    interns names into a pool with one string table first. Operations
    are stored only when some step is not an [Op.Update]. Engine set-up
    ([Sched.Cgraph], [Sched.Partition]) reads the ids ({!var_ids}) and
    hashes no name per step. *)

type t

val make : Names.var array array -> t
(** [make accesses] builds a syntax where [accesses.(i).(j)] is [x_ij],
    the variable accessed by step [j] of transaction [i]; every step is
    an [Op.Update]. Transactions may be empty. Raises [Invalid_argument]
    on an empty system. *)

val make_typed : (Op.t * Names.var) array array -> t
(** Like {!make} but with an explicit operation per step. *)

val init : Names.var array -> int array -> (int -> int -> int) -> t
(** [init pool fmt f] builds the syntax of format [fmt] whose step [j]
    of transaction [i] accesses [pool.(f i j)]; every step is an
    [Op.Update]. [f] is called once per step, in step order, so a
    generator may draw from a random state inside it. The names of
    [pool] must be distinct (two indices naming one variable would give
    it two ids); names no step uses are dropped. No name is hashed.
    Equal to {!make} over the same names. Raises [Invalid_argument] on
    an empty format or an index outside the pool. *)

val init_typed :
  Names.var array -> int array -> (int -> int -> Op.t * int) -> t
(** {!init} with an explicit operation per step: [f i j] is the step's
    operation and pool index. Equal to {!make_typed} over the same
    names. *)

val of_lists : Names.var list list -> t

val of_lists_typed : (Op.t * Names.var) list list -> t

val format : t -> int array
(** The paper's format [(m_1, ..., m_n)]. *)

val n_transactions : t -> int

val n_steps : t -> int
(** Total number of steps [Σ m_i]. *)

val length : t -> int -> int
(** [length s i] is [m_i]. *)

val var : t -> Names.step_id -> Names.var
(** [var s id] is [x_ij] for step [id]. Raises [Invalid_argument] on an
    out-of-range id. *)

val kind : t -> Names.step_id -> Op.t
(** The step's operation; [Op.Update] for any syntax built by {!make}
    or {!of_lists}. Raises [Invalid_argument] on an out-of-range id. *)

val typed : t -> bool
(** Whether any step is not an [Op.Update] (i.e. the syntax leaves the
    paper's pure read-modify-write fragment). *)

val n_vars : t -> int
(** The number of distinct variables: ids run over [0 .. n_vars - 1]. *)

val var_ids : t -> int array array
(** [(var_ids s).(i).(j)] is the id of [x_ij]. The rows are the
    syntax's own, shared with every caller, and must not be written. *)

val kinds : t -> Op.t array array
(** [(kinds s).(i).(j)] is the operation of step [j] of transaction
    [i], and [kinds s] is [[||]] when the syntax is untyped (every step
    an [Op.Update]). Shared like {!var_ids}: the rows must not be
    written. *)

val var_name : t -> int -> Names.var
(** The name of a variable id. Raises [Invalid_argument] on an
    out-of-range id. *)

val vars : t -> Names.var list
(** All distinct variable names, sorted. *)

val updates : t -> int -> Names.var list
(** [updates s i] is the sorted set of variables transaction [i]
    writes to (its write set — under pure RMW this equals its read
    set; [Op.Read] steps do not contribute). *)

val steps : t -> Names.step_id list
(** All steps, transaction by transaction. *)

val steps_on : t -> Names.var -> Names.step_id list
(** All steps accessing a given variable, in transaction order. *)

val transactions_on : t -> Names.var -> int list
(** Indices of transactions having at least one step on the variable. *)

val rename : (Names.var -> Names.var) -> t -> t
(** Apply a variable renaming (used for the §5.4 discussion of policies
    correct under arbitrary renamings). Operations are preserved. A
    renaming that merges two names merges their ids, and the ids are
    numbered by first use again. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Multi-line listing: one line per step, [Tij: x_ij] for updates and
    [Tij: k(x_ij)] with the {!Op.to_char} code otherwise. *)
