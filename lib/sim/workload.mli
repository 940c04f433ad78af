open Core

(** Workload generators for the benchmark harness.

    Transaction-system syntaxes with controlled contention (which
    variable each step touches), plus simple semantic fillings for when
    concrete execution is needed. Each generator names its variables
    from a pool [v0 .. v(n_vars - 1)] built once per call and hands
    {!Core.Syntax.init} the pool index of every step, drawn in step
    order: no name is formatted with [Printf] or hashed, and the syntax
    equals the one {!Core.Syntax.make} builds over the same names. *)

val var_pool : int -> Names.var list
(** [v0 .. v(n-1)]. *)

val uniform : Random.State.t -> n:int -> m:int -> n_vars:int -> Syntax.t
(** [n] transactions of [m] steps, each step on a uniformly random
    variable. *)

val hotspot : Random.State.t -> n:int -> m:int -> n_vars:int -> theta:float -> Syntax.t
(** Like {!uniform}, but each step touches variable [v0] with
    probability [theta] and a uniform other variable otherwise —
    [theta = 1.0] is the single-hot-spot workload, [theta = 0.0] spreads
    uniformly over the remaining variables. With [n_vars = 1] every step
    is clamped to the hot variable (there is no cold pool to draw
    from). *)

val zipf : Random.State.t -> n:int -> m:int -> n_vars:int -> s:float -> Syntax.t
(** Like {!uniform}, but variable [v_i] is drawn with probability
    proportional to [1/(i+1)^s] — the classic skewed access mix.
    [s = 0.0] degenerates to uniform; larger [s] concentrates accesses
    on the low-numbered variables. *)

val mixed :
  Random.State.t ->
  n:int -> m:int -> n_vars:int -> read_frac:float -> theta:float -> Syntax.t
(** Typed read/update mix over a {!hotspot}-shaped variable
    distribution (including its [n_vars = 1] clamp): each step is a
    [Op.Read] with probability [read_frac] and an RMW [Op.Update]
    otherwise. The workload that makes snapshot-isolation anomalies
    (write skew) reachable — under pure RMW, first-committer-wins
    already implies serializability. *)

val semantic_counters :
  Random.State.t ->
  n:int -> m:int -> n_vars:int -> theta:float -> read_frac:float -> Syntax.t
(** Hot-key credits/debits: each step is an [Op.Incr] or [Op.Decr]
    (even odds) on a {!hotspot}-distributed variable, with a
    [read_frac] fraction of [Op.Read] audits. Every rw scheduler
    serializes this mix on the hot key; the [semantic] scheduler
    admits the commuting bumps without coordination. *)

val semantic_zipf :
  Random.State.t ->
  n:int -> m:int -> n_vars:int -> s:float -> read_frac:float -> Syntax.t
(** The {!zipf}-skewed variant of {!semantic_counters}. *)

val disjoint : n:int -> m:int -> Syntax.t
(** Transaction [i] only touches its own variable — the zero-contention
    extreme. *)

val chain : depth:int -> Names.var list * (Names.var * Names.var) list
(** A chain hierarchy [v0 → v1 → ... ] for tree-locking workloads:
    returns the variables root-first and the (child, parent) pairs
    suitable for {!Locking.Tree_lock.policy}. *)

val counters : Syntax.t -> System.t
(** Fill a syntax with increment semantics ([φ_ij = t_ij + 1]) and a
    trivial IC — the standard semantic filling for delay measurements. *)

val transfers : Syntax.t -> System.t
(** Alternating [+1 / −1] semantics (odd steps add, even steps
    subtract), trivial IC; useful when distinct interpretations per step
    matter. *)
