(** Full transaction systems: syntax + semantics + integrity constraints.

    The semantics interprets each function symbol [f_ij] as an expression
    [φ_ij] over the local variables [t_i1 .. t_ij] ([Expr.Ast.Local 0] to
    [Local (j-1)], 0-based). The integrity constraints [IC] select the
    consistent global states. *)

type ic =
  | Pred of Expr.Ast.t
      (** A boolean expression over global variables. *)
  | Sat of string * (State.t -> bool)
      (** An opaque predicate with a display name, for constraints not
          expressible in the expression language (e.g. Herbrand
          reachability sets). *)
  | Trivial  (** Every state is consistent. *)

type t = private {
  syntax : Syntax.t;
  interp : Expr.Ast.t array array;  (** [interp.(i).(j)] is [φ_ij] *)
  domains : (Names.var * Expr.Value.domain) list;
      (** Domain of every global variable, sorted by name. *)
  ic : ic;
}

val make :
  ?domains:(Names.var * Expr.Value.domain) list ->
  ?ic:ic ->
  Syntax.t ->
  Expr.Ast.t array array ->
  t
(** Build and validate a system. Checks: the interpretation array matches
    the format; [φ_ij] mentions only [Local 0 .. Local j] (0-based step
    [j]) and no global variables. Unlisted variables default to the
    domain [Ints]; [ic] defaults to [Trivial]. Raises
    [Invalid_argument] with a diagnostic on violation. *)

val format : t -> int array
val n_transactions : t -> int

val phi : t -> Names.step_id -> Expr.Ast.t
(** The interpretation of a step's function symbol. *)

val consistent : t -> State.t -> bool
(** Whether a global state satisfies the integrity constraints. *)

val step_kind : t -> Names.step_id -> Op.t
(** Syntactic classification of §2, extended to the semantic
    operations: a step whose [φ] is the identity on its own read
    ([t_ij]) is an [Op.Read]; [t_ij ± c] is [Op.Incr]/[Op.Decr];
    [max t_ij c] (as the [If]/[Lt] pattern {!of_syntax} emits) is
    [Op.Max]; a [φ] that ignores [t_ij] is an [Op.Write]; anything else
    is [Op.Update]. A blind or semantic classification is {e demoted}
    to [Op.Update] when a later [φ] of the same transaction uses the
    step's local — the read would be observable, so commuting the step
    would not be sound. *)

val of_syntax :
  ?domains:(Names.var * Expr.Value.domain) list -> ?ic:ic -> Syntax.t -> t
(** Interpret a typed syntax with each step's canonical interpretation
    of its declared operation — the bridge from the declared operation
    model to the executable machine ([Exec], [Sched.Assertional]) and
    the concrete half of the semantic-scheduler oracle. {!step_kind}
    reads every declared operation back, except [Op.Enqueue], whose
    bag-insert is modelled as adding a per-step element token and reads
    back as [Op.Incr]. *)

val pp : Format.formatter -> t -> unit
(** Listing with interpretations: [Tij: x <- (t1 + 1)]. *)
