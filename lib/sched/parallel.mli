open Core

(** True multicore execution of the {!Sharded} engine on OCaml 5
    domains.

    The conflict geometry that justifies sharding also decides the
    domain layout: a conflict edge joins two accessors of one variable
    and therefore lives in exactly one shard, so shards that no
    cross-shard transaction touches can be scheduled by fully
    independent domains, while the shards entangled by cross-shard
    transactions — whose admission goes through the summary graph —
    escalate to a single {e coordinator} domain that admits them
    against the summary graph.

    Every worker runs the ordinary single-threaded {!Driver} over a
    {!Sharded} instance built on the projection of the syntax to the
    worker's transactions, fed its projection of the global arrival
    stream. Workers never exchange a word, so each projection is routed
    into a plain array (worker-local ids, arrival order) before the
    first domain is spawned. The variable-to-shard hash depends only on
    the variable name, so the projected partitions agree with the
    global one and the engine is {e decision-identical} to the simulated [Sharded] run:
    per worker, the same committed schedule and the same
    per-transaction abort counts. Queue-pressure metrics ([delays],
    [waiting]) legitimately differ — they are what parallel execution
    changes. *)

type worker_report = {
  txns : int array;
      (** the worker's transactions, global ids ascending — its local
          id space ([stats] and [stats.output] use local ids) *)
  coordinator : bool;
      (** whether this was the coordinator domain (all cross-shard
          traffic and every shard such traffic touches) *)
  stats : Driver.stats;
}

type report = {
  domains : int;  (** workers actually spawned (≤ requested) *)
  workers : worker_report array;
  output : Schedule.t;
      (** committed schedule, global ids: per-worker outputs
          concatenated in worker order. Each worker's slice preserves
          its true commit order; no order across workers is implied
          (none exists). *)
  delays : int;
  restarts : int;
  deadlocks : int;
  waiting : int;
  grants : int;  (** summed over workers *)
  aborts : int array;  (** per-transaction abort counts, global ids *)
}

val run :
  ?sink:Obs.Sink.t ->
  ?domains:int ->
  shards:int ->
  syntax:Syntax.t ->
  arrivals:int array ->
  unit ->
  report
(** Execute the arrival stream on up to [domains] domains (default
    [shards + 1]; clamped to the natural worker count — one per
    independent shard plus at most one coordinator — and at least 1),
    spawned in waves of [Domain.recommended_domain_count] and joined in
    worker order. [arrivals] is only read. With a [sink], each domain
    records into a private in-memory sink and the traces are merged
    after the last join — remapped to global transaction ids,
    concatenated in worker order — so a fixed seed yields a
    byte-identical merged trace regardless of how the OS interleaved
    the domains.

    Raises {!Driver.Stall} (after joining all workers; the first
    failure in worker order) if any worker's drain stalled or
    livelocked; [Invalid_argument] from
    {!Partition.make} on a bad shard count. *)
