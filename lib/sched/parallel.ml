open Core

(* True multicore execution of the sharded engine.

   The variable partition of {!Partition} already decides everything:
   a conflict edge lives in exactly one shard, so transactions that
   share no shard can be scheduled by independent machines that never
   exchange a word. The planner below turns that observation into a
   domain layout:

   - Shards touched by at least one cross-shard transaction are
     "coordinated": their verdicts flow through the summary graph, so
     all of them — and every transaction homed in them — run on one
     coordinator domain whose {!Sharded} instance admits cross-shard
     requests against the summary graph.
   - Every other non-empty shard is free of cross traffic; its
     transactions run on an independent domain (grouped round-robin
     when fewer domains than shards are requested).

   Each worker runs an ordinary single-threaded {!Driver} over its own
   {!Sharded} instance built on the {e projection} of the syntax to the
   worker's transactions, fed its projection of the global arrival
   stream. Workers never exchange a word, so that projection is routed
   into a plain array before the first domain is spawned: the hand-off
   needs no conduit. Because the variable-to-shard hash depends only on
   the variable name, the projected partition agrees with the global
   one, and each worker's shard-member sets equal the global run's — so
   the engine is decision-identical, worker by worker, to the simulated
   [Sharded] run over the full stream: same committed schedule
   projection, same per-transaction abort counts. (Delay and waiting
   counters legitimately differ: they measure queue pressure, which
   parallel execution exists to change.) The differential test in
   [test/test_parallel.ml] pins this. *)

type worker_report = {
  txns : int array; (* global transaction ids, ascending; local id = index *)
  coordinator : bool;
  stats : Driver.stats; (* over worker-local transaction ids *)
}

type report = {
  domains : int; (* workers actually spawned *)
  workers : worker_report array;
  output : Schedule.t;
  delays : int;
  restarts : int;
  deadlocks : int;
  waiting : int;
  grants : int;
  aborts : int array;
}

(* ---------- planning ---------- *)

type plan = {
  n_workers : int;
  owner : int array; (* transaction -> worker *)
  has_coordinator : bool;
}

let plan_of (p : Partition.t) ~domains =
  let k = p.Partition.shards in
  (* the shard bits of every cross transaction *)
  let coordinated = ref 0 in
  Array.iteri
    (fun tx c ->
      if c >= 0 then coordinated := !coordinated lor p.Partition.mask.(tx))
    p.Partition.cross_id;
  (* a coordinated shard has a member: the cross transaction touching it *)
  let has_coordinator = !coordinated <> 0 in
  let free_shards =
    List.filter
      (fun s ->
        Array.length p.Partition.members.(s) > 0
        && !coordinated land (1 lsl s) = 0)
      (List.init k Fun.id)
  in
  let base = if has_coordinator then 1 else 0 in
  let n_workers =
    max 1 (min domains (max 1 (base + List.length free_shards)))
  in
  (* the coordinated shards go to worker 0 *)
  let shard_owner = Array.make k 0 in
  List.iteri
    (fun i s ->
      (* round-robin the independent shards over the remaining workers;
         with a single worker everything folds onto it *)
      shard_owner.(s) <-
        (if n_workers <= base then 0 else base + (i mod (n_workers - base))))
    free_shards;
  let owner =
    Array.init p.Partition.n (fun tx ->
        if p.Partition.mask.(tx) = 0 then 0 (* empty: never arrives *)
        else begin
          (* lowest touched shard; all its shards share one worker *)
          let s = ref 0 in
          while p.Partition.mask.(tx) land (1 lsl !s) = 0 do
            incr s
          done;
          shard_owner.(!s)
        end)
  in
  { n_workers; owner; has_coordinator }

(* Projection of the syntax to a transaction subset, kinds preserved:
   the syntax's own names are the pool, so nothing is hashed. *)
let project syntax txns =
  let ids = Syntax.var_ids syntax in
  Syntax.init_typed
    (Array.init (Syntax.n_vars syntax) (Syntax.var_name syntax))
    (Array.map (Syntax.length syntax) txns)
    (fun i j -> (Syntax.kind syntax (Names.step txns.(i) j), ids.(txns.(i)).(j)))

let run ?(sink = Obs.Sink.null) ?domains ~shards ~syntax ~arrivals () =
  let p = Partition.make ~syntax ~shards in
  let domains =
    match domains with Some d -> max 1 d | None -> max 1 (shards + 1)
  in
  let pl = plan_of p ~domains in
  let w = pl.n_workers in
  (* worker transaction lists, ascending (Array.init order) *)
  let wtxns =
    Array.init w (fun wi ->
        let acc = ref [] in
        for tx = p.Partition.n - 1 downto 0 do
          if pl.owner.(tx) = wi then acc := tx :: !acc
        done;
        Array.of_list !acc)
  in
  let g2l = Array.make p.Partition.n (-1) in
  Array.iteri
    (fun _wi txns -> Array.iteri (fun l tx -> g2l.(tx) <- l) txns)
    wtxns;
  let trace = Obs.Sink.on sink in
  (* route the global stream: each worker's stream is its projection,
     in arrival order, over worker-local ids *)
  let streams = Array.make w [] in
  for i = Array.length arrivals - 1 downto 0 do
    let wi = pl.owner.(arrivals.(i)) in
    streams.(wi) <- g2l.(arrivals.(i)) :: streams.(wi)
  done;
  let streams = Array.map Array.of_list streams in
  (* every worker owns a transaction: a coordinated shard's members are
     all homed on worker 0, a free shard's on its own worker, and with
     no non-empty shard at all the single worker owns everything *)
  let work wi () =
    let sub = project syntax wtxns.(wi) in
    let collector = Obs.Sink.Memory.create () in
    let wsink =
      if trace then Obs.Sink.Memory.sink collector else Obs.Sink.null
    in
    match
      Driver.run ~sink:wsink
        (Sharded.create ~sink:wsink ~shards ~syntax:sub ())
        ~fmt:(Syntax.format sub) ~arrivals:streams.(wi)
    with
    | stats -> Ok (stats, Obs.Sink.Memory.events collector)
    | exception e -> Error e
  in
  (* Workers never exchange a word, so there is no reason to keep more
     of them in flight than the machine has cores: spawn them in waves
     of [recommended_domain_count]. On a real multicore box every
     worker still runs concurrently; on an oversubscribed one this
     avoids paying stop-the-world synchronization across mostly
     preempted domains. *)
  let wave = max 1 (Domain.recommended_domain_count ()) in
  let rec waves lo =
    if lo >= w then []
    else
      let hi = min w (lo + wave) in
      let doms = List.init (hi - lo) (fun j -> Domain.spawn (work (lo + j))) in
      (* join this wave before the next one is spawned *)
      let joined = List.map Domain.join doms in
      joined @ waves hi
  in
  let results = Array.of_list (waves 0) in
  (* every worker is joined; re-raise the first failure in worker order *)
  let results =
    Array.map (function Ok r -> r | Error e -> raise e) results
  in
  (* deterministic merge, worker order: stats totals, remapped trace *)
  let workers =
    Array.init w (fun wi ->
        let stats, _ = results.(wi) in
        {
          txns = wtxns.(wi);
          coordinator = pl.has_coordinator && wi = 0;
          stats;
        })
  in
  let aborts = Array.make p.Partition.n 0 in
  Array.iteri
    (fun wi (stats, _) ->
      Array.iteri
        (fun l a -> aborts.(wtxns.(wi).(l)) <- a)
        stats.Driver.aborts)
    results;
  let output =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun wi (stats, _) ->
              Array.map
                (fun (id : Names.step_id) ->
                  Names.step wtxns.(wi).(id.Names.tx) id.Names.idx)
                stats.Driver.output)
            results))
  in
  if trace then
    Array.iteri
      (fun wi (_, events) ->
        (* worker-local transaction ids back to global ones *)
        let g = Array.get wtxns.(wi) in
        List.iter
          (fun (ts, ev) -> Obs.Sink.record_at sink ts (Obs.Event.map_tx g ev))
          events)
      results;
  let sum f = Array.fold_left (fun acc (s, _) -> acc + f s) 0 results in
  {
    domains = w;
    workers;
    output;
    delays = sum (fun s -> s.Driver.delays);
    restarts = sum (fun s -> s.Driver.restarts);
    deadlocks = sum (fun s -> s.Driver.deadlocks);
    waiting = sum (fun s -> s.Driver.waiting);
    grants = sum (fun s -> s.Driver.grants);
    aborts;
  }
