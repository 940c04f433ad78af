open E2e

let floats = Alcotest.(float 1e-12)

let test_quantile () =
  let a = Array.init 100 (fun i -> i + 1) in
  Alcotest.(check int) "p50" 50 (Stats.quantile a 0.50);
  Alcotest.(check int) "p99" 99 (Stats.quantile a 0.99);
  Alcotest.(check int) "p100" 100 (Stats.quantile a 1.0);
  Alcotest.(check int) "p0 is the minimum" 1 (Stats.quantile a 0.0);
  Alcotest.(check int) "one sample" 7 (Stats.quantile [| 7 |] 0.99);
  Alcotest.check_raises "no samples" (Invalid_argument "Stats.quantile: no samples")
    (fun () -> ignore (Stats.quantile [||] 0.5))

let test_medians () =
  Alcotest.check floats "odd" 2. (Stats.median [| 3.; 1.; 2. |]);
  Alcotest.check floats "even" 2.5 (Stats.median [| 4.; 1.; 3.; 2. |]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (Array.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check floats "q1" 2.75 q1;
  Alcotest.check floats "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, q3 = Stats.quartiles [| 2.; 1. |] in
  Alcotest.check floats "q1 of two" 0.75 q1;
  Alcotest.check floats "q3 of two" 2.25 q3;
  (* statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0] *)
  let q1, q3 = Stats.quartiles [| 5.; 1.; 3. |] in
  Alcotest.check floats "q1 of three" 1. q1;
  Alcotest.check floats "q3 of three" 5. q3;
  Alcotest.check floats "spread" (5.5 /. 5.5)
    (Stats.spread (Array.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check floats "one value has no spread" 0. (Stats.spread [| 3. |])

let test_pacing () =
  let t0 = 1_000 and rate = 350_000 in
  let period = Stats.period_ns ~rate ~factor:1.0 in
  Alcotest.(check int) "first arrival at t0" t0 (Stats.due_ns ~t0 ~period 0);
  Alcotest.(check int) "7 periods of 2857.14 ns" (t0 + 20_000)
    (Stats.due_ns ~t0 ~period 7);
  Alcotest.(check int) "no drift after a second" (t0 + 1_000_000_000)
    (Stats.due_ns ~t0 ~period rate);
  for i = 1 to 10_000 do
    let gap = Stats.due_ns ~t0 ~period i - Stats.due_ns ~t0 ~period (i - 1) in
    if gap <> 2857 && gap <> 2858 then Alcotest.failf "gap %d before arrival %d" gap i
  done;
  (* a host running 1.5x slow spaces arrivals 1.5x wider in wall time *)
  let slow = Stats.period_ns ~rate ~factor:1.5 in
  Alcotest.(check int) "slow host, one second" (t0 + 1_500_000_000)
    (Stats.due_ns ~t0 ~period:slow rate);
  Alcotest.(check int) "unpaced" t0 (Stats.due_ns ~t0 ~period:0. 4095)

(* Metrics that count decisions, events and allocation, never time. *)
let counts =
  [
    "commit_frac"; "state_mb"; "driver.attempts_per_req"; "driver.delays_per_req";
    "driver.restarts_per_txn"; "driver.drain_commit_frac"; "sched.attempt_words_per_call";
    "sched.commit_words_per_call"; "sched.grant_ratio"; "cgraph.edges_per_grant";
    "cgraph.fresh_refusals_per_req"; "cgraph.cached_delay_frac";
    "commute.passes_per_grant"; "commute.skipped_per_grant"; "shard.cross_frac";
    "shard.routed_per_attempt"; "twopc.rounds_per_txn"; "twopc.msgs_per_round";
  ]

let test_counts_repeat () =
  List.iter
    (fun (w : Workloads.t) ->
      let once () =
        let r = Harness.run w ~seed:3 ~slices:2 ~per_slice:1 in
        let t = Harness.trace w ~seed:3 ~batches:2 in
        Alcotest.(check bool) (w.name ^ " run correct") true r.correct;
        Alcotest.(check bool) (w.name ^ " trace correct") true t.correct;
        Alcotest.(check int) (w.name ^ " nothing failed") 0 (r.failed + t.failed);
        List.filter_map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) (r.metrics @ t.metrics) with
            | Some (_, v, _) -> Some (name, v)
            | None -> None)
          counts
      in
      let a = once () and b = once () in
      Alcotest.(check int) (w.name ^ " every count present") (List.length counts)
        (List.length a);
      List.iter2
        (fun (name, va) (_, vb) ->
          if va <> vb then Alcotest.failf "%s %s: %.17g then %.17g" w.name name va vb)
        a b)
    Workloads.all

let test_traced_decisions () =
  List.iter
    (fun (w : Workloads.t) ->
      let p = Probe.create () in
      let delays = ref 0 and grants = ref 0 and restarts = ref 0 in
      for index = 0 to 2 do
        match
          ((Harness.paced w ~seed:5 ~index).stats, (Harness.traced w p ~seed:5 ~index).t_stats)
        with
        | (Some s as untraced), traced ->
          Alcotest.(check bool) (w.name ^ " same decisions") true
            (Harness.same_decisions untraced traced);
          delays := !delays + s.delays;
          grants := !grants + s.grants;
          restarts := !restarts + s.restarts
        | None, _ -> Alcotest.failf "%s batch %d stalled" w.name index
      done;
      (* the counting sink and the spans saw what the driver reported *)
      Alcotest.(check int) (w.name ^ " delays") !delays p.events.(Probe.ev_delayed);
      Alcotest.(check int) (w.name ^ " grants") !grants p.events.(Probe.ev_granted);
      Alcotest.(check int) (w.name ^ " commits") !grants p.calls.(Probe.commit);
      Alcotest.(check int) (w.name ^ " aborts") !restarts p.events.(Probe.ev_aborted))
    Workloads.all

let test_result_line () =
  let r = Harness.run (List.hd Workloads.all) ~seed:1 ~slices:1 ~per_slice:1 in
  match Json.parse (Harness.to_json r) with
  | Json.Obj kv ->
    Alcotest.(check (list string)) "exactly the result keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst kv);
    List.iter
      (fun (name, _, unit) ->
        match Option.bind (Json.member "metrics" (Json.Obj kv)) (Json.member name) with
        | Some m ->
          Alcotest.(check bool) (name ^ " unit") true
            (Json.member "unit" m = Some (Json.Str unit))
        | None -> Alcotest.failf "metric %s missing" name)
      r.metrics
  | _ -> Alcotest.fail "result line is not an object"

let () =
  Alcotest.run "e2e"
    [
      ( "stats",
        [
          Alcotest.test_case "exact quantiles" `Quick test_quantile;
          Alcotest.test_case "medians and quartiles" `Quick test_medians;
          Alcotest.test_case "due-time pacing" `Quick test_pacing;
        ] );
      ( "harness",
        [
          Alcotest.test_case "count metrics repeat" `Quick test_counts_repeat;
          Alcotest.test_case "traced decisions = untraced" `Quick test_traced_decisions;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
