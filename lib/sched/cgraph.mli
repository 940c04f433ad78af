open Core

(** The conflict-graph kernel under every serialization-graph engine:
    {!Sgt}, {!Semantic}, and each shard of {!Sharded}. It holds the
    accessor lists of the granted prefix, the conflict graph on
    {!Digraph.Acyclic}, the version stamp behind the delay cache, and
    removal. Vertices are the engine's transaction ids (shard-local ones
    under {!Sharded}).

    {b Conflict classes.} Each step's op is compiled once, at {!create},
    into a class: ops that commute with exactly the same ops per
    {!Core.Commute} share one, so a class-by-class matrix carries the
    whole (static, symmetric) relation. Without ops every step is in
    the one class that conflicts with everything: syntactic SGT.
    Accessor lists are kept per (variable, class), so a request's
    candidate edge sources are whole lists, read in place.

    {b Removal.} A completed transaction with no incoming edge never
    gains one, so it can never lie on a cycle: it is pruned, through a
    worklist fed by completions and by the completed successors of
    removed vertices and drained at each completion. Removal never makes
    an eligible vertex ineligible, so this prunes the fixpoint a full
    scan reaches. Removing a transaction walks only the variables its
    steps name, its footprint. *)

type t

val create :
  ?sink:Obs.Sink.t ->
  ?ids:int array ->
  ?op_of_step:(int -> int -> Op.t) ->
  ?prunable:(int -> bool) ->
  n_vars:int ->
  var_of_step:int array array ->
  unit ->
  t
(** Vertices are [0 .. Array.length var_of_step - 1]; step [idx] of
    vertex [l] accesses variable [var_of_step.(l).(idx)] in
    [0 .. n_vars-1] with op [op_of_step l idx], read once here (absent:
    every pair conflicts). [prunable] vetoes pruning (default: never);
    [ids.(l)] names [l] in events (default [l]). With a [sink], inserted
    edges emit
    {!Obs.Event.Edge_added} and grants that passed over commuting
    accessors emit {!Obs.Event.Commute_pass}. *)

val version : t -> int
(** Bumped by every removal (abort or prune). *)

val live : t -> int -> bool
(** The vertex holds accessor entries: granted, and not removed since. *)

val graph : t -> Digraph.Acyclic.t
(** The conflict graph, for read-only queries. *)

val cached : t -> int -> int -> bool
(** [cached g l idx]: the delay {!block} recorded for step [idx] of [l]
    still stands, because nothing was removed since: between removals
    the graph and the accessor lists only grow, and growth never turns a
    cycle-closing request grantable. *)

val block : t -> int -> int -> unit
(** Record a delay for step [idx] of [l] at the current version. *)

val mark_reaching_sources : t -> int -> int -> unit
(** Marks, in one backward search, every vertex that is or reaches an
    accessor other than [l] that conflicts with step [idx] of [l]. Read
    the marks with {!Digraph.Acyclic.marked} on {!graph}. *)

val has_sources : t -> int -> int -> bool
(** Some accessor of the variable conflicts with step [idx] of [l]
    ([l] itself included): when false, granting adds no edge. *)

val refuses : t -> int -> int -> bool
(** [l] is, or reaches, an accessor other than itself that conflicts
    with step [idx] of [l]: granting the step would close a cycle.
    One bounded search; nothing is allocated. *)

val grant : t -> int -> int -> unit
(** An edge from every conflicting accessor, then the step's entry. *)

val complete : t -> int -> unit
(** The vertex's final step was granted: queue it and prune. *)

val abort : t -> int -> unit
(** Remove the vertex and its entries. Vertices this frees wait on the
    worklist until the next completion. *)

val add_vetted : Digraph.Acyclic.t -> int -> int -> unit
(** Insert an edge admission already vetted. Raises [Failure] naming the
    broken invariant if the edge would close a cycle. *)

val scheduler :
  ?sink:Obs.Sink.t -> name:string -> commute:bool -> Syntax.t -> Scheduler.t
(** The SGT request loop over one kernel; fresh refusals emit
    {!Obs.Event.Cycle_refused}, cached ones are silent. With [commute]
    the classes come from the syntax's ops ({!Semantic}); without, every
    pair conflicts ({!Sgt}). *)
