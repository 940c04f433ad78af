open Core

(** The conflict-graph kernel under every serialization-graph engine:
    {!Sgt}, {!Semantic}, and each shard of {!Sharded}. It holds the
    accessor lists of the granted prefix, the conflict graph on
    {!Digraph.Acyclic}, removal, and the delay cache its request loops
    share. Vertices are the engine's transaction ids (shard-local ones
    under {!Sharded}).

    {b Conflict classes.} The ops are compiled once, at {!create}, into
    classes: ops that commute with exactly the same ops per
    {!Core.Commute} share one, so a class-by-class matrix carries the
    whole (static, symmetric) relation, and a step's class is a function
    of its op alone: one slot per op ({!Core.Op.index}), read through
    the step's code. Without codes every step is in the one class that
    conflicts with everything: syntactic SGT. Accessor lists are kept
    per (variable, class), so a request's candidate edge sources are
    whole lists, read in place.

    {b Chains.} Every decision reads only reachability, so the graph
    need not hold every conflict edge, only the same reachability as the
    full conflict graph over the live vertices. The accessor list of a
    class that conflicts with itself is a chain: each member has an edge
    to the next newer one, so it reaches every newer one. A grant links
    only a chain's head, its newest member, and every member of a list
    whose class commutes with itself. The searches read a chain list at
    its head as well ({!Digraph.Acyclic.closes_cycle_any_of}): the
    refusal search, the grant's cycle check and {!mark_reaching_sources}
    stamp the head alone, with the same answers, marks and witnesses as
    a read of every member.

    {b Removal.} Before a vertex with in-edges is removed, the next-older
    neighbour [p] on each of its chain lists gets a bypass edge to every
    successor that holds an entry conflicting with that list: an edge of
    the full conflict graph, so it closes no cycle, and the full graph's
    reachability survives the removal. A completed transaction with no
    incoming edge never gains one (a bypass ends only at a successor of
    the removed vertex), so it can never lie on a cycle: it is pruned,
    through a worklist fed by completions and by the completed
    successors of removed vertices and drained at each completion.
    Removal never makes an eligible vertex ineligible, so this prunes
    the fixpoint a full scan reaches. Each vertex keeps the list of
    entries it holds, and removing it walks exactly that list: its
    footprint.

    {b Delay cache.} A refused request of [l] names a path [l ~> u] to
    a conflicting accessor [u] ({!Digraph.Acyclic.last_path}). The
    refusal stands until a transaction on that path aborts. Prunes never
    remove a vertex of it: every vertex after [l] has an in-edge from
    its predecessor, and [l] has a pending request, so it is incomplete.
    Grants and bypasses only add edges and entries, and an abort off the
    path removes none of its edges. So the request loops keep, per
    blocked transaction, the refused step and its path ({!refusals}),
    and answer a retry from it until an abort on the path clears it. *)

type t

val create :
  ?sink:Obs.Sink.t ->
  ?ids:int array ->
  ?prunable:(int -> bool) ->
  n_vars:int ->
  vars:int array ->
  start:int array ->
  codes:Bytes.t ->
  unit ->
  t
(** Vertex [l] is transaction [ids.(l)], and the vertices are [0 ..
    Array.length ids - 1], none for an empty [ids]; without [ids], [l]
    is transaction [l], over every transaction of [start]. The steps
    are flat, as {!Core.Syntax} stores them: step [idx] of transaction
    [i] is slot [start.(i) + idx], which accesses variable [vars.(slot)]
    in [0 .. n_vars-1] with op [Op.of_index (Char.code (Bytes.get codes
    slot))] (empty [codes]: every pair conflicts). [vars],
    [start] and [codes] are kept, not copied, and never written: a
    kernel over some of a syntax's transactions reads the syntax's own
    arrays through [ids]. The ops are read once here, into a table from
    op code to class, with classes numbered by first use in vertex
    order, step order; a step's class is that table's entry for its
    code, and no per-step class is stored. Every call that names a step
    raises [Invalid_argument] when [idx] is outside its transaction.
    [prunable] vetoes pruning (default: never); events name a vertex by
    its transaction. Each vertex gets one held-entry slot per distinct
    (variable, class) entry of its steps, counted by one stamp pass
    here, not one per step. With a [sink], a grant emits one
    {!Obs.Event.Edge_added} per conflicting accessor, edges already
    present or left implied by a chain included, so events are those
    of the full conflict graph, and one that passed over commuting
    accessors emits {!Obs.Event.Commute_pass}. *)

val version : t -> int
(** The removal count: bumped by every abort and every prune. The
    "kernel = full-scan prune model" differential (test_sgt_diff)
    checks it against the model's count after every step. *)

val live : t -> int -> bool
(** The vertex holds accessor entries: granted, and not removed since. *)

val graph : t -> Digraph.Acyclic.t
(** The graph, for read-only queries: its reachability is the conflict
    graph's, not its edge set (see the header). *)

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
    One bounded search; nothing is allocated. After [true],
    {!Digraph.Acyclic.last_path} on {!graph} is the path from [l] to
    that accessor. *)

val reaches_sources : t -> int -> int -> int -> bool
(** [reaches_sources g v l idx]: [v] is, or reaches, an accessor other
    than [l] that conflicts with step [idx] of [l]; {!refuses} is the
    case [v = l]. After [true], {!Digraph.Acyclic.last_path} on {!graph}
    is the path from [v] to that accessor. *)

val grant : t -> int -> int -> unit
(** An edge from every conflicting accessor, or from the head alone of
    a conflicting chain list, inserted with one
    {!Digraph.Acyclic.add_edges_acyclic_of}, then the step's entry. The
    step must be vetted: not {!refuses} (else [Failure] names the broken
    invariant). When the last clear {!refuses} was for this very step,
    the insertion reuses its search
    ({!Digraph.Acyclic.add_edges_vetted_of}): only the rotate-and-link
    step runs if nothing has searched or changed the graph since. When
    [l] already holds the step's (variable, class) entry, every
    conflicting accessor already reaches [l] and no insertion is
    made. One present at the entry's first grant was
    linked then, or reaches its chain's head, which was; one added
    since got an edge from [l] at its own grant, as conflicts are
    symmetric, so [l] reaches it and {!refuses} would hold. An entry
    and its edges leave together, at removal. *)

val complete : t -> int -> unit
(** The vertex's final step was granted: queue it and prune. *)

val abort : t -> int -> unit
(** Remove the vertex and its entries, bypassing it on its chain lists.
    Vertices this frees wait on the worklist until the next
    completion. *)

type refusals = private {
  blocked : int array;
      (** per transaction, its refused step, or [-1]: a request for that
          step is a cached Delay *)
  path : int array array;
      (** per transaction, the witness of its refusal, or [[||]] *)
}
(** The delay cache of a request loop, over the ids the loop names
    transactions by (see the header); a witness may hold other ids too,
    such as {!Sharded}'s coordinator ids [-1 - c]. *)

val refusals : int -> refusals
(** An empty cache for transactions [0 .. n-1]. *)

val refuse : refusals -> int -> int -> int array -> unit
(** [refuse r tx idx path]: step [idx] of [tx] was refused, and [path]
    (which holds [tx]) witnesses it. The array is kept, not copied. *)

val clear_through : refusals -> int -> unit
(** [v] aborted: drop every entry whose path holds [v]. A grant needs no
    clearing: a step is granted only when no entry holds it. *)

val scheduler :
  ?sink:Obs.Sink.t -> name:string -> commute:bool -> Syntax.t -> Scheduler.t
(** The SGT request loop over one kernel, with a {!refusals} cache over
    its vertices: fresh refusals emit {!Obs.Event.Cycle_refused}, cached
    ones are silent. The cache's [blocked] array is the scheduler's
    [standing], so the driver answers cached refusals without asking.
    With [commute] the classes come from the syntax's ops ({!Semantic});
    without, every pair conflicts ({!Sgt}). The kernel reads the
    syntax's flat ids, offsets and codes ({!Core.Syntax.ids},
    {!Core.Syntax.start}, {!Core.Syntax.codes}) in place: building the
    engine interns no name and copies no format or step table. *)
