(** Global database states.

    A global state [G] assigns a value to every global variable. The full
    state of a running transaction system in the paper is a triple
    [(J, L, G)]; the program counters [J] and the local values [L] live
    inside {!Exec.run_state}, while this module handles the [G]
    component, which is what integrity constraints talk about. *)

type t = Expr.Value.t Names.Vmap.t

val empty : t

val of_list : (Names.var * Expr.Value.t) list -> t

val of_ints : (Names.var * int) list -> t
(** Convenience: all-integer state. *)

val get : t -> Names.var -> Expr.Value.t
(** Raises [Not_found] on an unbound variable. *)

val set : t -> Names.var -> Expr.Value.t -> t

val bindings : t -> (Names.var * Expr.Value.t) list

val equal : t -> t -> bool
val compare : t -> t -> int

val restrict : Names.var list -> t -> t
(** Keep only the listed variables (missing ones are ignored). *)

val to_string : t -> string
(** [{A=150, B=50}]. *)

val enumerate : (Names.var * Expr.Value.domain) list -> t list option
(** All states over the given finite domains ([None] if some domain is
    infinite). The number of states is the product of domain sizes. *)

val sample : Random.State.t -> ?bound:int -> (Names.var * Expr.Value.domain) list -> t
(** One random state over the given domains. *)
