open Core

(** The serialization-graph-testing scheduler — the {e realised} optimal
    scheduler for complete syntactic information (Theorem 3).

    Maintains the conflict graph of the granted prefix and grants a step
    iff the graph stays acyclic. Because conflict serializability is
    prefix-closed and coincides with the Herbrand notion [SR(T)] in the
    paper's step model, the fixpoint set of this scheduler is exactly
    [SR(T)]. A request that would close a cycle cannot succeed until a
    transaction on the refusing search's path aborts (grants only add
    edges, and prunes never remove a vertex of that path), so stalls
    are resolved by aborting the requester, whose edges are then
    removed.

    The conflict graph is maintained {e incrementally} on
    {!Digraph.Acyclic} (a dynamic topological order): the admission test
    is a single reachability query bounded by a window of the order,
    each commit extends the graph in place with one insertion and at
    most one rotation of that window, and pruning/aborts remove a vertex
    without a rebuild. The machinery is the shared {!Cgraph} kernel with
    every step in its one conflicts-with-everything class. {!Sgt_ref} keeps the original
    copy-and-recheck implementation as the differential oracle. *)

val create : ?sink:Obs.Sink.t -> syntax:Syntax.t -> unit -> Scheduler.t
(** With a [sink], admitted conflict edges emit
    {!Obs.Event.Edge_added} and fresh cycle refusals emit
    {!Obs.Event.Cycle_refused}. A retry of a refused step is answered
    from {!Cgraph}'s delay cache, keyed on the refusal's path, until a
    transaction on that path aborts; those re-verdicts run no search and
    stay silent. Timestamps come from the driving
    loop's {!Obs.Sink.set_now}. Constructor shape per the convention in
    {!Scheduler}. *)
