(** A small total expression language.

    Used in two roles:
    - {b step interpretations} [φ_ij]: an expression over the local
      variables [t_i1 .. t_ij] ([Local 0 .. Local (j-1)]) gives the new
      value written to [x_ij];
    - {b integrity constraints}: a boolean expression over global
      variable names describes the consistent states.

    Every expression evaluates totally (division by zero yields 0, type
    mismatches raise [Type_error] — which well-typedness checking rules
    out beforehand). *)

type t =
  | Const of Value.t
  | Local of int            (** [Local k] = the local variable [t_{i,k+1}] *)
  | Global of string        (** a global variable, for constraints *)
  | Neg of t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t            (** integer division; [x / 0 = 0] *)
  | Eq of t * t
  | Le of t * t
  | Lt of t * t
  | Not of t
  | And of t * t
  | Or of t * t
  | If of t * t * t

exception Type_error of string

val int : int -> t
val bool : bool -> t
val ge : t -> t -> t

val eval : locals:(int -> Value.t) -> globals:(string -> Value.t) -> t -> Value.t
(** Evaluate. [locals k] supplies [Local k]; [globals v] supplies
    [Global v]. Raises [Type_error] on ill-typed operations and whatever
    the lookup functions raise on unknown variables. *)

val eval_closed : t -> Value.t
(** Evaluate an expression with no variables. *)

val locals_used : t -> int list
(** Indices of [Local] variables occurring, sorted, without duplicates. *)

val globals_used : t -> string list
(** Names of [Global] variables occurring, sorted, without duplicates. *)

val max_local : t -> int
(** Largest [Local] index used, or [-1] if none. *)

val is_identity_of : int -> t -> bool
(** [is_identity_of k e] is [true] iff [e] is syntactically [Local k] —
    the paper's criterion for a {e read step} ([f_ij] = identity on
    [t_ij]). *)

val depends_on_local : int -> t -> bool
(** Whether [Local k] occurs in the expression. A step whose
    interpretation does not depend on its own read is a {e write step}. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
