(* The multicore execution engine ([Sched.Parallel]).

   The engine's contract is decision-identity with the simulated
   [Sched.Sharded] run: same committed schedule per worker, same
   per-transaction abort counts — only the queue-pressure counters
   (delays, waiting) may differ. The tests sweep workload mixes, shard
   counts and domain counts; CI re-runs the suite with CCOPT_DOMAINS
   forced to 2 and to 8 to shake out layouts where domains outnumber
   cores and vice versa. *)

open Util
open Core

(* CI knob: how many domains the engine tests request. *)
let env_domains =
  match Sys.getenv_opt "CCOPT_DOMAINS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some d when d >= 1 && d <= 64 -> d
    | _ -> 4)
  | None -> 4

(* ---------- the execution engine ---------- *)

let simulate ~shards syntax arrivals =
  Sched.Driver.run
    (Sched.Sharded.create ~shards ~syntax ())
    ~fmt:(Syntax.format syntax) ~arrivals:(Array.copy arrivals)

(* Decision-identity against the simulated run: per worker, the
   committed schedule is the projection of nothing but that worker's
   transactions, and it must equal the projection of the simulated
   output; abort counts must agree transaction by transaction. *)
let check_identity ~domains ~shards syntax arrivals =
  let sim = simulate ~shards syntax arrivals in
  let before = Array.copy arrivals in
  let par = Sched.Parallel.run ~domains ~shards ~syntax ~arrivals () in
  Alcotest.(check (array int)) "arrivals only read" before arrivals;
  check_true "some worker" (Array.length par.Sched.Parallel.workers >= 1);
  check_true "domains within request"
    (par.Sched.Parallel.domains <= max 1 domains);
  Array.iter
    (fun (w : Sched.Parallel.worker_report) ->
      let mine = Array.make (Syntax.n_transactions syntax) false in
      Array.iter (fun tx -> mine.(tx) <- true) w.Sched.Parallel.txns;
      let sim_proj =
        Array.of_list
          (List.filter
             (fun (id : Names.step_id) -> mine.(id.Names.tx))
             (Array.to_list sim.Sched.Driver.output))
      in
      let par_glob =
        Array.map
          (fun (id : Names.step_id) ->
            Names.step w.Sched.Parallel.txns.(id.Names.tx) id.Names.idx)
          w.Sched.Parallel.stats.Sched.Driver.output
      in
      check_true "worker projection of the committed schedule"
        (Schedule.equal sim_proj par_glob))
    par.Sched.Parallel.workers;
  Alcotest.(check (array int))
    "per-transaction abort counts" sim.Sched.Driver.aborts
    par.Sched.Parallel.aborts;
  check_int "total restarts" sim.Sched.Driver.restarts
    par.Sched.Parallel.restarts;
  check_int "total deadlocks" sim.Sched.Driver.deadlocks
    par.Sched.Parallel.deadlocks;
  check_int "total grants" sim.Sched.Driver.grants par.Sched.Parallel.grants;
  (* worker disjointness makes the concatenated output serializable iff
     each slice is — but check the global statement directly *)
  check_true "merged output conflict-serializable"
    (Conflict.serializable syntax par.Sched.Parallel.output)

let test_single_domain_exact () =
  (* one worker is literally the simulated engine: every statistic
     agrees, including the queue-pressure ones *)
  let st = rng 31 in
  let syntax = Sim.Workload.uniform st ~n:8 ~m:3 ~n_vars:4 in
  let fmt = Syntax.format syntax in
  let arrivals = Combin.Interleave.random st fmt in
  let sim = simulate ~shards:4 syntax arrivals in
  let par = Sched.Parallel.run ~domains:1 ~shards:4 ~syntax ~arrivals () in
  check_int "one worker" 1 par.Sched.Parallel.domains;
  check_true "exact output"
    (Schedule.equal sim.Sched.Driver.output par.Sched.Parallel.output);
  check_int "exact delays" sim.Sched.Driver.delays par.Sched.Parallel.delays;
  check_int "exact waiting" sim.Sched.Driver.waiting
    par.Sched.Parallel.waiting;
  check_int "exact grants" sim.Sched.Driver.grants par.Sched.Parallel.grants;
  Alcotest.(check (array int))
    "exact aborts" sim.Sched.Driver.aborts par.Sched.Parallel.aborts

let test_decision_identity_sweep () =
  (* mixes x shard counts, at the CI-forced domain count *)
  List.iter
    (fun seed ->
      let st = Random.State.make [| 0xDA; seed |] in
      let mixes =
        [
          Sim.Workload.uniform (rng (seed + 100)) ~n:10 ~m:3 ~n_vars:6;
          Sim.Workload.hotspot (rng (seed + 200)) ~n:10 ~m:3 ~n_vars:5
            ~theta:0.5;
          Sim.Workload.disjoint ~n:10 ~m:2;
        ]
      in
      List.iter
        (fun syntax ->
          let fmt = Syntax.format syntax in
          let arrivals = Combin.Interleave.random st fmt in
          List.iter
            (fun shards ->
              check_identity ~domains:env_domains ~shards syntax arrivals)
            [ 2; 4; 8 ])
        mixes)
    [ 0; 1; 2 ]

let test_coordinator_plan () =
  (* cross traffic lands on worker 0 with every shard it touches;
     disjoint workloads have no coordinator at all *)
  let syntax =
    Syntax.of_lists [ [ "x"; "y" ]; [ "y"; "x" ]; [ "z"; "z" ]; [ "w" ] ]
  in
  let fmt = Syntax.format syntax in
  let st = rng 7 in
  let arrivals = Combin.Interleave.random st fmt in
  let par =
    Sched.Parallel.run ~domains:8 ~shards:8 ~syntax ~arrivals ()
  in
  let coords =
    Array.to_list par.Sched.Parallel.workers
    |> List.filter (fun w -> w.Sched.Parallel.coordinator)
  in
  (match coords with
  | [ c ] ->
    check_true "cross transactions on the coordinator"
      (Array.exists (fun tx -> tx = 0) c.Sched.Parallel.txns
      && Array.exists (fun tx -> tx = 1) c.Sched.Parallel.txns)
  | _ -> Alcotest.fail "expected exactly one coordinator");
  let disjoint = Sim.Workload.disjoint ~n:6 ~m:2 in
  let dfmt = Syntax.format disjoint in
  let darr = Combin.Interleave.random st dfmt in
  let dpar =
    Sched.Parallel.run ~domains:8 ~shards:8 ~syntax:disjoint ~arrivals:darr ()
  in
  check_true "disjoint has no coordinator"
    (Array.for_all
       (fun w -> not w.Sched.Parallel.coordinator)
       dpar.Sched.Parallel.workers)

let test_merged_trace_deterministic () =
  (* two runs at a fixed seed produce byte-identical merged event logs,
     whatever the OS made of the domain interleaving: per-domain sinks
     are merged in worker order after the last join. K = 4 per the
     acceptance criterion. *)
  let st = rng 77 in
  let syntax = Sim.Workload.hotspot st ~n:12 ~m:3 ~n_vars:6 ~theta:0.4 in
  let fmt = Syntax.format syntax in
  let arrivals = Combin.Interleave.random st fmt in
  let render () =
    let collector = Obs.Sink.Memory.create () in
    ignore
      (Sched.Parallel.run ~domains:env_domains ~shards:4
         ~sink:(Obs.Sink.Memory.sink collector)
         ~syntax ~arrivals ());
    Obs.Event_log.to_string (Obs.Sink.Memory.events collector)
  in
  let a = render () and b = render () in
  check_true "merged trace byte-identical" (String.equal a b);
  check_true "merged trace non-trivial" (String.length a > 200)

let test_empty_transactions () =
  (* transactions with no steps touch no shard: worker 0 owns them all,
     the stream is empty and nothing is granted *)
  let syntax = Syntax.of_lists [ []; [] ] in
  let par =
    Sched.Parallel.run ~domains:env_domains ~shards:4 ~syntax ~arrivals:[||]
      ()
  in
  check_int "one worker" 1 par.Sched.Parallel.domains;
  Alcotest.(check (array int))
    "it holds both transactions" [| 0; 1 |]
    par.Sched.Parallel.workers.(0).Sched.Parallel.txns;
  check_int "no grants" 0 par.Sched.Parallel.grants

let suite =
  [
    Alcotest.test_case "single domain = simulated engine" `Quick
      test_single_domain_exact;
    Alcotest.test_case "decision-identity sweep" `Slow
      test_decision_identity_sweep;
    Alcotest.test_case "coordinator plan" `Quick test_coordinator_plan;
    Alcotest.test_case "merged trace deterministic" `Quick
      test_merged_trace_deterministic;
    Alcotest.test_case "empty transactions on one worker" `Quick
      test_empty_transactions;
  ]
