open Core

(** The sharded serialization-graph-testing engine.

    Variables are partitioned across K shards ({!Partition}); each shard
    runs the incremental SGT admission test of {!Sgt} on its own private
    conflict graph over shard-local transaction ids, reading its
    members' rows of the syntax's own variable ids as {!Sgt} reads
    them all. Because every
    conflict edge joins two accessors of one variable, every edge lives
    in exactly one shard, and a request from a {e single-shard}
    transaction is decided entirely inside its home shard — no shared
    state is touched, which is where the engine scales with the
    partition instead of the global history.

    Only {e cross-shard} transactions escalate to the coordinator: a
    summary graph over the cross-shard transactions on the same
    {!Digraph.Acyclic} structure, where an edge [a -> b] records an
    intra-shard path from [a] to [b] in some shard. The global conflict
    graph is acyclic iff every shard graph is acyclic and the summary
    graph is acyclic (a global cycle decomposes into intra-shard path
    segments whose boundary vertices are cross-shard transactions).
    A fresh decision runs a fixed number of searches however many
    cross-shard transactions there are: one backward and one forward
    marking search in the shard find the candidate summary edges, and
    one {!Digraph.Acyclic.reaches_any} search tests them all against
    the summary graph. [commit] inserts the edges its granting
    [attempt] found, and both insertions reuse that attempt's searches:
    the shard kernel's its refusal search, as the marking searches in
    between leave its record ({!Digraph.Acyclic.add_edges_vetted_of}),
    and the summary graph's its {!Digraph.Acyclic.reaches_any}, which
    {!Digraph.Acyclic.add_edges_acyclic} finds in the graph's record
    when handed the same candidate lists. Summary edges are
    kept until an endpoint aborts (a conservative superset — stale paths
    can only over-delay, never admit a cycle).

    Single-shard completed source transactions are pruned per shard
    exactly as in {!Sgt}; cross-shard transactions are never pruned (a
    shard-local in-degree of zero says nothing about their edges in
    other shards). With [shards = 1] — or on any workload where every
    transaction is single-shard — there are no cross-shard transactions,
    the coordinator is never consulted, and the engine's decisions,
    statistics and fixpoint set coincide exactly with {!Sgt}'s. *)

val create :
  ?sink:Obs.Sink.t ->
  ?shards:int ->
  ?commit_cross:(tx:int -> shards:int list -> bool) ->
  syntax:Syntax.t ->
  unit ->
  Scheduler.t
(** [shards] defaults to 4. A refused request's retries are answered
    from a delay cache over global ids, keyed on the refusal's witness,
    an array of ids: its shard path, or for a summary refusal the shard
    path to a cross-shard transaction, the summary path on to another
    (coordinator id [c] as [-1 - c]), and the shard path from there to a
    conflicting accessor. The verdict stands until a transaction on the
    witness aborts ({!Cgraph}'s lemma; summary edges leave only with an
    endpoint), and the cache is the scheduler's [standing], which the
    driver answers itself. With a [sink], each non-cached
    request emits {!Obs.Event.Shard_routed} with the owning shard,
    admitted intra-shard conflict edges emit {!Obs.Event.Edge_added} and
    fresh refusals emit {!Obs.Event.Cycle_refused}, all with global
    transaction ids. Constructor shape per the convention in
    {!Scheduler}. Raises [Invalid_argument] unless [1 <= shards <= 62].

    [commit_cross] is the distributed atomic-commit hook: when the
    {e final} step of a {e cross-shard} transaction passes admission,
    the hook runs one commit round over the shards of the transaction's
    partition mask, ascending (typically {!Twopc.commit} of a
    {!Twopc.service}); [false] turns the grant into [Abort], handing the
    transaction back to the driver for a restart — the scheduler-abort
    path, identical to a certification refusal. The hook fires only on
    that terminal success path (never for a cached delay), so a
    fault-free hook that always answers [true] — or no hook at all —
    yields bit-identical decisions, statistics and commit sets.
    Single-shard transactions never consult it: their conflicts are
    provably local, so they commit without coordination — the
    coordination-avoidance boundary made executable. *)
