(** Weak serializability — Section 4.3.

    A schedule [h] is {b weakly serializable} if, starting from {e any}
    state [E], its execution ends in a state achievable by some
    concatenation of transactions — possibly with repetitions and
    omissions — also starting from [E]. Unlike [SR], the check uses the
    {e actual} interpretations (semantic information), but not the
    integrity constraints.

    The universal quantification over states and the unbounded
    concatenation length are approximated by a finite probe set and a
    depth bound (see DESIGN.md, substitutions): refutation is sound;
    acceptance is sound up to the bound. The depth bound defaults to
    [n + 2] transactions, which suffices for all the systems in the
    paper (the concatenation never needs to be much longer than the
    schedule itself for the examples considered). *)

type verdict =
  | Weakly_serializable of int list list
      (** One witness concatenation per probe state, in probe order. *)
  | Refuted of State.t
      (** A probe state from which no concatenation reaches [h]'s final
          state within the depth bound. *)

val check :
  ?max_len:int ->
  ?max_states:int ->
  System.t ->
  probes:State.t list ->
  Schedule.t ->
  verdict
(** [check sys ~probes h] decides (boundedly) whether [h ∈ WSR(T)].
    [max_len] bounds concatenation length (default [n + 2]);
    [max_states] bounds the breadth-first state exploration per probe
    (default 200_000, a safety valve for large domains). *)

val is_weakly_serializable :
  ?max_len:int -> ?max_states:int -> System.t -> probes:State.t list ->
  Schedule.t -> bool

val reachable_finals :
  ?max_len:int -> ?max_states:int -> System.t -> State.t ->
  (State.t * int list) list
(** All states reachable from a given state by concatenations of
    complete transactions within the bounds, each with one witness
    concatenation (shortest-first exploration). *)

val default_probes : ?count:int -> seed:int -> System.t -> State.t list
(** Probe states: full enumeration when every domain is finite and the
    product is small, otherwise [count] (default 25) random states
    sampled with values in [-8..8]. *)
