(** Concrete execution of transaction steps and schedules (Section 2).

    A running state is the paper's triple [(J, L, G)]: program counters,
    declared-local values, and the global state. Executing an eligible
    step [T_ij] performs [t_ij ← x_ij ; x_ij ← φ_ij(t_i1 .. t_ij)]
    atomically. *)

type run_state = {
  pc : int array;  (** [J]: next step index per transaction (0-based). *)
  locals : Expr.Value.t option array array;
      (** [L]: [locals.(i).(j)] is [t_i(j+1)] once declared. *)
  globals : State.t;  (** [G]. *)
}

val start : System.t -> State.t -> run_state
(** Initial state: all counters 0, no local declared. Raises
    [Invalid_argument] if the global state does not bind every variable
    of the system or binds one outside its domain. *)

exception Not_eligible of Names.step_id

val exec_step : System.t -> run_state -> Names.step_id -> run_state
(** Execute one eligible step. Raises {!Not_eligible} otherwise, and
    [Expr.Ast.Type_error] if the interpretation is ill-typed for the
    encountered values. *)

val run : System.t -> State.t -> Schedule.t -> State.t
(** Execute a whole schedule from an initial global state and return the
    final global state. The schedule's steps are executed left to right;
    raises {!Not_eligible} if the sequence is not a legal schedule. *)

val run_trace : System.t -> State.t -> Schedule.t -> State.t list
(** Like {!run} but returns the global state after every step (the list
    has one entry per step, last = final state). *)

val run_transaction : System.t -> State.t -> int -> State.t
(** Serially execute one complete transaction. *)

val run_concatenation : System.t -> State.t -> int list -> State.t
(** Serially execute a concatenation of complete transactions (possibly
    with repetitions and omissions — the WSR notion). *)

val correct_schedule : System.t -> probes:State.t list -> Schedule.t -> bool
(** Membership in [C(T)] tested on a finite probe set: the schedule is
    accepted iff from every {e consistent} probe state its execution ends
    consistent. (Sound refutation; acceptance is relative to the probe
    set — see DESIGN.md substitutions.) *)

val basic_assumption : System.t -> probes:State.t list -> bool
(** All transactions individually correct on the probe set. *)
