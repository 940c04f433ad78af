open Core

(** Finite micro-universes of transaction systems.

    An information level is a {e set} of transaction systems the
    scheduler cannot tell apart (Section 3.3). To check the optimality
    theorems exhaustively, this module materialises such sets over a
    finite domain [Z_k = {0, .., k-1}]: every interpretation is an
    arbitrary total function [Z_k^j → Z_k] (encoded as a decision-tree
    expression), and every integrity constraint an arbitrary subset of
    the finite state space. The systems violating the paper's basic
    assumption (some transaction individually incorrect) are filtered
    out.

    Every function here raises [Invalid_argument] when [k < 2]: the
    theorems are stated for [k ≥ 2] (see {!Verify}). *)

val all_functions : k:int -> arity:int -> Expr.Ast.t list
(** Every function [Z_k^arity → Z_k], as expressions over
    [Local 0 .. Local (arity-1)]. There are [k^(k^arity)] of them;
    guarded against blowup ([k^arity ≤ 8]). *)

val all_syntaxes : fmt:int array -> vars:Names.var list -> Syntax.t list
(** Every access pattern of the format over the given variables. *)

val all_ics : k:int -> vars:Names.var list -> System.ic list
(** Every subset of the state space [Z_k^vars], as [Sat] predicates
    (named by their bitmask). The empty subset is excluded (no
    consistent state = vacuous). *)

val candidates : k:int -> fmt:int array -> vars:Names.var list -> int
(** The systems {!systems} enumerates per syntax before its filter,
    counted without enumerating: the product over steps of
    [k^(k^arity)] (step [j] of a transaction reads [j + 1] values)
    times the [2^(k^|vars|) - 1] constraints. Saturates at [max_int],
    and is [max_int] when a step's arity or the state space is one
    {!all_functions} or {!all_ics} refuses. *)

val systems :
  k:int -> ?syntaxes:Syntax.t list -> fmt:int array -> vars:Names.var list ->
  unit -> System.t Seq.t
(** All systems over the universe parameters that satisfy the basic
    assumption (every transaction individually correct, checked over the
    whole finite state space). [syntaxes] defaults to
    {!all_syntaxes}. *)

val states : k:int -> vars:Names.var list -> State.t list
(** The full finite state space. *)
